package atomicio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"thetis/internal/faultio"
)

func TestCRCSectionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCRCWriter(&buf)
	cw.Write([]byte("hello"))
	cw.Write([]byte(" world"))
	if err := cw.WriteSum(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 11+4 {
		t.Errorf("section is %d bytes, want 11 and a 4-byte sum", buf.Len())
	}
	cr := NewCRCReader(&buf)
	got := make([]byte, 11)
	if _, err := io.ReadFull(cr, got); err != nil {
		t.Fatal(err)
	}
	if err := cr.VerifySum(); err != nil {
		t.Fatalf("clean section rejected: %v", err)
	}
}

func TestLineReader(t *testing.T) {
	lr := NewLineReader(strings.NewReader("one\r\ntwo\n\nfour"), 100)
	want := []string{"one", "two", "", "four"}
	for i, w := range want {
		line, n, tooLong, err := lr.Next()
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if n != i+1 || tooLong || string(line) != w {
			t.Fatalf("line %d = %q (no=%d tooLong=%v), want %q", i+1, line, n, tooLong, w)
		}
	}
	if _, _, _, err := lr.Next(); err != io.EOF {
		t.Fatalf("after last line: %v, want EOF", err)
	}
}

// TestLineReaderTooLong: an over-cap line is reported truncated and fully
// consumed; subsequent lines keep their correct numbers and content.
func TestLineReaderTooLong(t *testing.T) {
	long := strings.Repeat("x", 200*1024) // crosses the internal buffer size
	lr := NewLineReader(strings.NewReader("ok\n"+long+"\nafter\n"), 10)
	line, _, tooLong, err := lr.Next()
	if err != nil || tooLong || string(line) != "ok" {
		t.Fatalf("first line = %q tooLong=%v err=%v", line, tooLong, err)
	}
	line, n, tooLong, err := lr.Next()
	if err != nil || !tooLong || n != 2 {
		t.Fatalf("long line: no=%d tooLong=%v err=%v", n, tooLong, err)
	}
	if len(line) != 10 || string(line) != "xxxxxxxxxx" {
		t.Fatalf("long line kept %d bytes %q, want first 10", len(line), line)
	}
	line, n, tooLong, err = lr.Next()
	if err != nil || tooLong || n != 3 || string(line) != "after" {
		t.Fatalf("line after long = %q (no=%d tooLong=%v err=%v)", line, n, tooLong, err)
	}
}

// TestFaultLineReaderReadError: a mid-stream read error is surfaced, not
// spun on.
func TestFaultLineReaderReadError(t *testing.T) {
	src := faultio.NewFailingReader(strings.NewReader("aaa\nbbb\nccc\n"), 5, nil)
	lr := NewLineReader(src, 100)
	if _, _, _, err := lr.Next(); err != nil {
		t.Fatalf("first line should be buffered: %v", err)
	}
	_, _, _, err := lr.Next()
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("injected read fault not surfaced: %v", err)
	}
}
