package faultio

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFailingReader(t *testing.T) {
	fr := NewFailingReader(strings.NewReader("0123456789"), 4, nil)
	got, err := io.ReadAll(fr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if string(got) != "0123" {
		t.Fatalf("delivered %q, want first 4 bytes", got)
	}

	custom := errors.New("boom")
	fr = NewFailingReader(strings.NewReader("abc"), 0, custom)
	if _, err := fr.Read(make([]byte, 1)); !errors.Is(err, custom) {
		t.Fatalf("custom error not propagated: %v", err)
	}
}

func TestShortReader(t *testing.T) {
	sr := NewShortReader(strings.NewReader("0123456789"), 6)
	got, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "012345" {
		t.Fatalf("delivered %q, want first 6 bytes then clean EOF", got)
	}
}
