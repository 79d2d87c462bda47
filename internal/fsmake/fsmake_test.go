package fsmake

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
)

func TestNamesAndKernels(t *testing.T) {
	want := map[string]string{
		"logfs": "btrfs", "journalfs": "ext4", "f2fsim": "F2FS", "fscqsim": "FSCQ",
		"diskfmt": "reference",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if Kernel(n) != want[n] {
			t.Errorf("Kernel(%s) = %s, want %s", n, Kernel(n), want[n])
		}
	}
	if Kernel("other") != "other" {
		t.Error("unknown names pass through")
	}
}

func TestConstructorsProduceWorkingFS(t *testing.T) {
	for _, name := range Names() {
		for _, build := range []func(string) (interface {
			Mkfs(blockdev.Device) error
			Name() string
		}, error){
			func(n string) (interface {
				Mkfs(blockdev.Device) error
				Name() string
			}, error) {
				return Fixed(n)
			},
			func(n string) (interface {
				Mkfs(blockdev.Device) error
				Name() string
			}, error) {
				return NewBugsOnly(n)
			},
			func(n string) (interface {
				Mkfs(blockdev.Device) error
				Name() string
			}, error) {
				return AtVersion(n, bugs.Latest)
			},
		} {
			fs, err := build(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fs.Name() != name {
				t.Fatalf("Name() = %s, want %s", fs.Name(), name)
			}
			dev := blockdev.NewMemDisk(8192)
			if err := fs.Mkfs(dev); err != nil {
				t.Fatalf("%s: mkfs: %v", name, err)
			}
		}
	}
	if _, err := New("bogus", bugs.Latest, nil); err == nil {
		t.Fatal("unknown FS must error")
	}
}

func TestNewBugsOnlyActivatesExactlyTable5(t *testing.T) {
	// The campaign configuration carries only New mechanisms.
	for _, name := range Names() {
		wantCount := 0
		for _, b := range bugs.NewBugs() {
			if b.FS == name {
				wantCount++
			}
		}
		fs, err := NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		type bugLister interface{ ActiveBugs() []string }
		if lister, ok := fs.(bugLister); ok {
			if got := len(lister.ActiveBugs()); got != wantCount {
				t.Errorf("%s: active = %d, want %d", name, got, wantCount)
			}
		}
	}
}

// TestGuaranteeClasses pins how the backends group by what they promise:
// the oracle is built once per class of equal Guarantees, so the classes
// decide how many oracles a campaign builds and which rows share one.
func TestGuaranteeClasses(t *testing.T) {
	var classes [][]string
	var reps []filesys.Guarantees
	for _, name := range Names() {
		fs, err := Fixed(name)
		if err != nil {
			t.Fatal(err)
		}
		g := fs.Guarantees()
		i := slices.Index(reps, g)
		if i < 0 {
			i = len(reps)
			reps = append(reps, g)
			classes = append(classes, nil)
		}
		classes[i] = append(classes[i], name)
	}
	for _, c := range classes {
		slices.Sort(c)
	}
	slices.SortFunc(classes, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	want := [][]string{{"diskfmt", "f2fsim", "journalfs"}, {"fscqsim"}, {"logfs"}}
	if fmt.Sprint(classes) != fmt.Sprint(want) {
		t.Fatalf("guarantee classes = %v, want %v", classes, want)
	}
}
