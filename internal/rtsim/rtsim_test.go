package rtsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCheckedAndUncheckedAgree(t *testing.T) {
	s := NewSlice(257)
	for i := 0; i < s.Len(); i++ {
		if s.Get(i) != s.GetUnchecked(i) {
			t.Fatalf("mismatch at %d: %d vs %d", i, s.Get(i), s.GetUnchecked(i))
		}
	}
}

func TestSumsAgree(t *testing.T) {
	prop := func(n uint16) bool {
		s := NewSlice(int(n%4096) + 1)
		a, b, c := s.SumChecked(), s.SumUnchecked(), s.SumPointer()
		return a == b && b == c
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCheckedPanicsOutOfBounds(t *testing.T) {
	s := NewSlice(8)
	for _, idx := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", idx)
				}
			}()
			s.Get(idx)
		}()
	}
}

func TestCopiesAgree(t *testing.T) {
	prop := func(data []byte) bool {
		src := append([]byte(nil), data...)
		d1 := make([]byte, len(src))
		d2 := make([]byte, len(src))
		CopyFromSlice(d1, src)
		CopyNonoverlapping(d2, src)
		for i := range src {
			if d1[i] != src[i] || d2[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCopyFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	CopyFromSlice(make([]byte, 3), make([]byte, 4))
}
