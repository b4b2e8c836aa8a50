package pmem

import (
	"encoding/binary"
	"iter"
	"reflect"
	"slices"
	"testing"
)

// trackedLines returns a tracked device whose line i holds versions[i]
// unfenced stores, store k writing k into the line's first word, and its
// dirty-line states.
func trackedLines(versions ...int) (*Device, []LineState) {
	d := New(int64(len(versions))*LineSize, nil)
	d.EnableTracking()
	for i, v := range versions {
		for k := 1; k <= v; k++ {
			d.Store64(int64(i)*LineSize, uint64(k))
		}
	}
	return d, d.DirtyLineStates()
}

// assignments copies out every assignment images yields; it takes
// CrashImages' results whole.
func assignments(images iter.Seq2[[]int, []byte], _ bool) [][]int {
	var out [][]int
	for ks := range images {
		out = append(out, append([]int(nil), ks...))
	}
	return out
}

func TestCrashImagesExhaustiveMixedRadix(t *testing.T) {
	d, lines := trackedLines(2, 1, 3)
	images, exhaustive := d.CrashImages(lines, CrashDropAll, 3*2*4, 1)
	if !exhaustive {
		t.Fatal("a space of exactly the budget is not exhaustive")
	}
	n := 0
	for ks, img := range images {
		want := []int{n % 3, n / 3 % 2, n / 6}
		if !reflect.DeepEqual(ks, want) {
			t.Fatalf("image %d: assignment %v, want %v", n, ks, want)
		}
		for i, k := range ks {
			if got := binary.LittleEndian.Uint64(img[int64(i)*LineSize:]); got != uint64(k) {
				t.Fatalf("image %d: line %d reads %d, want its prefix %d", n, i, got, k)
			}
		}
		n++
	}
	if n != 3*2*4 {
		t.Fatalf("%d images, want the product of (Versions+1), 24", n)
	}
	if _, exhaustive := d.CrashImages(lines, CrashDropAll, 3*2*4-1, 1); exhaustive {
		t.Fatal("a space one image over the budget is reported exhaustive")
	}
}

func TestCrashImagesCorners(t *testing.T) {
	d, lines := trackedLines(1)
	if got := assignments(d.CrashImages(lines, CrashDropAll, 0, 1)); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("one line: %v, want nothing and everything once each", got)
	}
	d, lines = trackedLines(slices.Repeat([]int{1}, maxCornerLines+44)...)
	got := assignments(d.CrashImages(lines, CrashDropAll, 1<<20, 1))
	if len(got) != 8+sampleN {
		t.Fatalf("%d images past maxCornerLines, want 8 corners and %d samples", len(got), sampleN)
	}
	if slices.Contains(got[0], 1) || slices.Contains(got[1], 0) {
		t.Fatal("the first two corners are not nothing and everything")
	}
	for j, c := range []int{0, len(lines) / 2, len(lines) - 1} {
		alone, missing := got[2+2*j], got[3+2*j]
		if slices.Index(alone, 1) != c || slices.Contains(alone[c+1:], 1) || slices.Index(missing, 0) != c || slices.Contains(missing[c+1:], 0) {
			t.Fatalf("corners %d and %d are not line %d alone and line %d missing", 2+2*j, 3+2*j, c, c)
		}
	}
}

func TestCrashImagesRestCoversOtherLines(t *testing.T) {
	d, lines := trackedLines(1, 1, 1)
	for _, tc := range []struct {
		rest CrashPolicy
		want uint64
	}{{CrashDropAll, 0}, {CrashPersistAll, 1}} {
		images, _ := d.CrashImages(lines[1:2], tc.rest, 2, 1)
		n := 0
		for _, img := range images {
			for _, i := range []int64{0, 2} {
				if got := binary.LittleEndian.Uint64(img[i*LineSize:]); got != tc.want {
					t.Fatalf("line %d outside the enumerated ones reads %d, want %d", i, got, tc.want)
				}
			}
			n++
		}
		if n != 2 {
			t.Fatalf("%d images over one line of one version, want 2", n)
		}
	}
}

func TestCrashImagesSeeded(t *testing.T) {
	d, lines := trackedLines(slices.Repeat([]int{3}, 20)...)
	a := assignments(d.CrashImages(lines, CrashDropAll, 0, 7))
	if b := assignments(d.CrashImages(lines, CrashDropAll, 0, 7)); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different assignments")
	}
	if c := assignments(d.CrashImages(lines, CrashDropAll, 0, 8)); reflect.DeepEqual(a, c) {
		t.Fatal("another seed drew the same assignments")
	}
}

func TestCrashImagesBreakStopsMaterializing(t *testing.T) {
	d, lines := trackedLines(1, 1)
	calls := 0
	rest := func(int64, int) int { calls++; return 0 }
	images, _ := d.CrashImages(lines[:1], rest, 2, 1)
	for range images {
		break
	}
	if calls != 1 {
		t.Fatalf("breaking after the first image materialized %d images", calls)
	}
}
