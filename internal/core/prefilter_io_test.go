package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"thetis/internal/atomicio"
	"thetis/internal/lake"
	"thetis/internal/table"
)

func TestTypeLSEIRoundTrip(t *testing.T) {
	x, l, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTypeLSEI(l, NewTypeJaccard(g), &buf)
	if err != nil {
		t.Fatal(err)
	}
	q := queryOf(t, g, "santo", "cubs")
	want := x.Candidates(q, 1)
	got := back.Candidates(q, 1)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("candidates after round trip = %v, want %v", got, want)
	}
	if back.NumBuckets() != x.NumBuckets() {
		t.Errorf("buckets = %d, want %d", back.NumBuckets(), x.NumBuckets())
	}
	// Incremental inserts still work on a loaded index.
	back.AddTable(0)
}

func TestEmbeddingLSEIRoundTrip(t *testing.T) {
	l, g, ec := embeddingFixture(t)
	x := BuildEmbeddingLSEI(l, ec, 4, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEmbeddingLSEI(l, ec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	q := queryOf(t, g, "santo", "cubs")
	if !reflect.DeepEqual(x.Candidates(q, 1), back.Candidates(q, 1)) {
		t.Error("embedding LSEI candidates differ after round trip")
	}
}

func TestColumnModeLSEIRoundTrip(t *testing.T) {
	x, l, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1, ColumnAggregation: true})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTypeLSEI(l, NewTypeJaccard(g), &buf)
	if err != nil {
		t.Fatal(err)
	}
	q := queryOf(t, g, "santo")
	if !reflect.DeepEqual(x.Candidates(q, 1), back.Candidates(q, 1)) {
		t.Error("column-mode LSEI candidates differ after round trip")
	}
}

// TestColumnModeLSEILoadRejectsSmallerLake: the vote workspace is sized to
// the lake's table slots, so a column-mode snapshot naming tables the lake
// it is loaded over does not have is refused, not a panic at the first
// query.
func TestColumnModeLSEILoadRejectsSmallerLake(t *testing.T) {
	x, _, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1, ColumnAggregation: true})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	smaller := lake.New(g)
	smaller.Add(table.New("only", []string{"a"}))
	if _, err := LoadTypeLSEI(smaller, NewTypeJaccard(g), &buf); !errors.Is(err, atomicio.ErrCorruptSnapshot) {
		t.Fatalf("column snapshot of a 5-table lake loaded over a 1-table lake: err = %v", err)
	}
}

func TestLSEILoadKindMismatch(t *testing.T) {
	x, l, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, g2, ec := embeddingFixture(t)
	_ = g2
	if _, err := LoadEmbeddingLSEI(l, ec, &buf); err == nil {
		t.Error("type snapshot accepted as embedding LSEI")
	}
	_ = g
}

func TestLSEILoadGarbage(t *testing.T) {
	l, g := fixtureLake(t)
	if _, err := LoadTypeLSEI(l, NewTypeJaccard(g), bytes.NewReader([]byte("garbage data"))); err == nil {
		t.Error("garbage accepted as LSEI snapshot")
	}
}

// TestLSEILoadRefusesVersion1 checks that a version-1 snapshot, whose
// buckets hold signatures of the old wrapping MinHash multiply, is refused
// rather than probed with today's signatures.
func TestLSEILoadRefusesVersion1(t *testing.T) {
	x, l, g := typeLSEI(t, LSEIConfig{Vectors: 32, BandSize: 8, Seed: 1})
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[4:], 1) // the envelope's version field
	_, err := LoadTypeLSEI(l, NewTypeJaccard(g), bytes.NewReader(data))
	if !errors.Is(err, atomicio.ErrCorruptSnapshot) || !strings.Contains(err.Error(), "unsupported LSEI snapshot version 1") {
		t.Fatalf("v1 snapshot: err = %v, want the unsupported-version error", err)
	}
}
