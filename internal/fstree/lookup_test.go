package fstree

import (
	"errors"
	"testing"

	"b3/internal/filesys"
)

// lookupFixture is /a (a directory), /a/f (a regular file) and /a/d, an
// entry whose inode is gone (a dangling entry, as buggy recovery leaves).
func lookupFixture(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	if _, err := tr.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create("/a/f"); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Create("/a/d")
	if err != nil {
		t.Fatal(err)
	}
	tr.RemoveNode(d.Ino)
	return tr
}

// TestLookupErrorsUnchanged pins what path resolution reports, text and
// errors.Is class, for the odd paths: empty, root-only, doubled and
// trailing slashes, relative, through a regular file, under a missing
// parent, and through a dangling entry, which unlink and rmdir also
// report as corruption. Empty components resolve as
// strings.Split yields them, so /a//b names a child "" of /a, while its
// parent path "a/" trims to /a. Each op runs on a fresh fixture.
func TestLookupErrorsUnchanged(t *testing.T) {
	ops := map[string]func(tr *Tree, path string) error{
		"lookup":     func(tr *Tree, p string) error { _, err := tr.Lookup(p); return err },
		"create":     func(tr *Tree, p string) error { _, err := tr.Create(p); return err },
		"mkdir":      func(tr *Tree, p string) error { _, err := tr.Mkdir(p); return err },
		"linkTo":     func(tr *Tree, p string) error { _, err := tr.Link("/a/f", p); return err },
		"linkFrom":   func(tr *Tree, p string) error { _, err := tr.Link(p, "/a/n"); return err },
		"renameTo":   func(tr *Tree, p string) error { _, _, err := tr.Rename("/a/f", p); return err },
		"renameFrom": func(tr *Tree, p string) error { _, _, err := tr.Rename(p, "/a/n"); return err },
		"unlink":     func(tr *Tree, p string) error { _, _, err := tr.Unlink(p); return err },
		"rmdir":      func(tr *Tree, p string) error { _, err := tr.Rmdir(p); return err },
	}
	cases := []struct {
		op, path, text string
		class          error
	}{
		{"lookup", "", "", nil},
		{"create", "", "resolve \"\": invalid argument", filesys.ErrInvalid},
		{"mkdir", "", "resolve \"\": invalid argument", filesys.ErrInvalid},
		{"linkTo", "", "resolve \"\": invalid argument", filesys.ErrInvalid},
		{"renameTo", "", "resolve \"\": invalid argument", filesys.ErrInvalid},
		{"linkFrom", "", "link \"\": is a directory", filesys.ErrIsDir},
		{"lookup", "/", "", nil},
		{"create", "/", "resolve \"/\": invalid argument", filesys.ErrInvalid},
		{"mkdir", "/", "resolve \"/\": invalid argument", filesys.ErrInvalid},
		{"linkTo", "/", "resolve \"/\": invalid argument", filesys.ErrInvalid},
		{"renameTo", "/", "resolve \"/\": invalid argument", filesys.ErrInvalid},
		{"linkFrom", "/", "link \"/\": is a directory", filesys.ErrIsDir},
		{"lookup", "//", "", nil},
		{"create", "//", "resolve \"//\": invalid argument", filesys.ErrInvalid},
		{"mkdir", "//", "resolve \"//\": invalid argument", filesys.ErrInvalid},
		{"linkTo", "//", "resolve \"//\": invalid argument", filesys.ErrInvalid},
		{"renameTo", "//", "resolve \"//\": invalid argument", filesys.ErrInvalid},
		{"linkFrom", "//", "link \"//\": is a directory", filesys.ErrIsDir},
		{"lookup", "/a//b", "lookup \"/a//b\": no such file or directory", filesys.ErrNotExist},
		{"create", "/a//b", "", nil},
		{"mkdir", "/a//b", "", nil},
		{"linkTo", "/a//b", "", nil},
		{"renameTo", "/a//b", "", nil},
		{"linkFrom", "/a//b", "lookup \"/a//b\": no such file or directory", filesys.ErrNotExist},
		{"lookup", "/a//b/c", "lookup \"/a//b/c\": no such file or directory", filesys.ErrNotExist},
		{"create", "/a//b/c", "lookup \"a//b\": no such file or directory", filesys.ErrNotExist},
		{"mkdir", "/a//b/c", "lookup \"a//b\": no such file or directory", filesys.ErrNotExist},
		{"linkTo", "/a//b/c", "lookup \"a//b\": no such file or directory", filesys.ErrNotExist},
		{"renameTo", "/a//b/c", "lookup \"a//b\": no such file or directory", filesys.ErrNotExist},
		{"linkFrom", "/a//b/c", "lookup \"/a//b/c\": no such file or directory", filesys.ErrNotExist},
		{"lookup", "/a/", "", nil},
		{"create", "/a/", "create \"a\": file exists", filesys.ErrExist},
		{"mkdir", "/a/", "create \"a\": file exists", filesys.ErrExist},
		{"linkTo", "/a/", "link \"/a/\": file exists", filesys.ErrExist},
		{"renameTo", "/a/", "rename \"/a/f\" over \"/a/\": is a directory", filesys.ErrIsDir},
		{"linkFrom", "/a/", "link \"/a/\": is a directory", filesys.ErrIsDir},
		{"lookup", "a/f", "", nil},
		{"create", "a/f", "create \"f\": file exists", filesys.ErrExist},
		{"mkdir", "a/f", "create \"f\": file exists", filesys.ErrExist},
		{"linkTo", "a/f", "link \"a/f\": file exists", filesys.ErrExist},
		{"renameTo", "a/f", "", nil},
		{"linkFrom", "a/f", "", nil},
		{"lookup", "/a/f/x", "lookup \"/a/f/x\": not a directory", filesys.ErrNotDir},
		{"create", "/a/f/x", "resolve \"/a/f/x\": not a directory", filesys.ErrNotDir},
		{"mkdir", "/a/f/x", "resolve \"/a/f/x\": not a directory", filesys.ErrNotDir},
		{"linkTo", "/a/f/x", "resolve \"/a/f/x\": not a directory", filesys.ErrNotDir},
		{"renameTo", "/a/f/x", "resolve \"/a/f/x\": not a directory", filesys.ErrNotDir},
		{"linkFrom", "/a/f/x", "lookup \"/a/f/x\": not a directory", filesys.ErrNotDir},
		{"lookup", "/m/x", "lookup \"/m/x\": no such file or directory", filesys.ErrNotExist},
		{"create", "/m/x", "lookup \"m\": no such file or directory", filesys.ErrNotExist},
		{"mkdir", "/m/x", "lookup \"m\": no such file or directory", filesys.ErrNotExist},
		{"linkTo", "/m/x", "lookup \"m\": no such file or directory", filesys.ErrNotExist},
		{"renameTo", "/m/x", "lookup \"m\": no such file or directory", filesys.ErrNotExist},
		{"linkFrom", "/m/x", "lookup \"/m/x\": no such file or directory", filesys.ErrNotExist},
		{"lookup", "/a/d", "lookup \"/a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"create", "/a/d", "create \"d\": file exists", filesys.ErrExist},
		{"mkdir", "/a/d", "create \"d\": file exists", filesys.ErrExist},
		{"linkTo", "/a/d", "link \"/a/d\": file exists", filesys.ErrExist},
		{"linkFrom", "/a/d", "lookup \"/a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"renameTo", "/a/d", "rename over \"/a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"renameFrom", "/a/d", "rename \"/a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"unlink", "/a/d", "unlink \"/a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"rmdir", "/a/d", "rmdir \"/a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"lookup", "/a/d/x", "lookup \"/a/d/x\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"create", "/a/d/x", "lookup \"a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"mkdir", "/a/d/x", "lookup \"a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"linkTo", "/a/d/x", "lookup \"a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"renameTo", "/a/d/x", "lookup \"a/d\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
		{"linkFrom", "/a/d/x", "lookup \"/a/d/x\": dangling entry \"d\": file system corrupted", filesys.ErrCorrupted},
	}
	for _, c := range cases {
		err := ops[c.op](lookupFixture(t), c.path)
		text := ""
		if err != nil {
			text = err.Error()
		}
		if text != c.text {
			t.Errorf("%s(%q) = %q, want %q", c.op, c.path, text, c.text)
		}
		if (err == nil) != (c.class == nil) || (c.class != nil && !errors.Is(err, c.class)) {
			t.Errorf("%s(%q) = %v, want class %v", c.op, c.path, err, c.class)
		}
	}
	exists := map[string]bool{
		"":        true,
		"/":       true,
		"//":      true,
		"/a//b":   false,
		"/a//b/c": false,
		"/a/":     true,
		"a/f":     true,
		"/a/f/x":  false,
		"/m/x":    false,
		"/a/d":    false,
		"/a/d/x":  false,
	}
	for path, want := range exists {
		if got := lookupFixture(t).Exists(path); got != want {
			t.Errorf("Exists(%q) = %v, want %v", path, got, want)
		}
	}
}
