package fsapi

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestClean(t *testing.T) {
	cases := map[string]string{
		"":          "/",
		"/":         "/",
		"a":         "/a",
		"/a/":       "/a",
		"//a//b///": "/a/b",
		"/a/b":      "/a/b",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
		{"//a//b", "/a", "b"},
	}
	for _, c := range cases {
		dir, name := SplitPath(c.in)
		if dir != c.dir || name != c.name {
			t.Errorf("SplitPath(%q) = (%q, %q), want (%q, %q)", c.in, dir, name, c.dir, c.name)
		}
	}
}

// refClean is Clean as it was before it read the path once.
func refClean(path string) string {
	if path == "" {
		return "/"
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	for strings.Contains(path, "//") {
		path = strings.ReplaceAll(path, "//", "/")
	}
	if len(path) > 1 && strings.HasSuffix(path, "/") {
		path = path[:len(path)-1]
	}
	return path
}

// refComponents is what the cursor replaced: the elements of the cleaned
// path, by strings.Split.
func refComponents(path string) []string {
	path = refClean(path)
	if path == "/" {
		return nil
	}
	return strings.Split(path[1:], "/")
}

func walkAll(path string) []string {
	var got []string
	c := Walk(path)
	for c.Next() {
		got = append(got, c.Name())
	}
	// A drained cursor stays drained.
	if c.Next() || c.Name() != "" {
		panic("cursor yielded after its end")
	}
	return got
}

func TestPathCursor(t *testing.T) {
	deep := strings.Repeat("/d", 513)
	long := strings.Repeat("n", 255)
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"/", nil},
		{"///", nil},
		{"a", []string{"a"}},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"a//b/", []string{"a", "b"}},
		{"//a///b/", []string{"a", "b"}},
		{"/./..", []string{".", ".."}},
		{deep, strings.Split(deep[1:], "/")},
		{"/d/" + long, []string{"d", long}},
	}
	for _, c := range cases {
		got := walkAll(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Walk(%.40q) = %.80q, want %.80q", c.in, got, c.want)
		}
		if ref := refComponents(c.in); !reflect.DeepEqual(got, ref) {
			t.Errorf("Walk(%.40q) = %.80q, Split(refClean) = %.80q", c.in, got, ref)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for c := Walk("//a///b/c"); c.Next(); {
		}
		_ = Clean("/a/b/c")
	}); n != 0 {
		t.Errorf("walking a path and cleaning a clean one allocate %v objects, want 0", n)
	}
}

// FuzzPathCursor holds the cursor, on any string, to the split of the
// cleaned path it replaced, and Clean to the
// multi-pass one it replaced.
func FuzzPathCursor(f *testing.F) {
	for _, s := range []string{"", "/", "a", "//a///b/", "/a/b/c", "a/", "/\x00/\xff", strings.Repeat("/d", 513)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, path string) {
		got, want := walkAll(path), refComponents(path)
		if len(got) != len(want) {
			t.Fatalf("Walk(%q) = %q, Split(refClean) = %q", path, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Walk(%q) = %q, Split(refClean) = %q", path, got, want)
			}
		}
		if clean, want := Clean(path), refClean(path); clean != want || Clean(clean) != clean {
			t.Fatalf("Clean(%q) = %q, want %q", path, clean, want)
		}
	})
}

// Property: SplitPath + join is the identity on cleaned paths.
func TestQuickSplitJoin(t *testing.T) {
	f := func(parts []string) bool {
		path := ""
		for _, p := range parts {
			if p == "" {
				p = "x"
			}
			for i := 0; i < len(p); i++ {
				if p[i] == '/' {
					p = "y"
					break
				}
			}
			path += "/" + p
		}
		if path == "" {
			path = "/"
		}
		cleaned := Clean(path)
		dir, name := SplitPath(cleaned)
		if cleaned == "/" {
			return dir == "/" && name == ""
		}
		rejoined := dir + "/" + name
		if dir == "/" {
			rejoined = "/" + name
		}
		return Clean(rejoined) == cleaned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
