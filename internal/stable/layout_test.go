package stable_test

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stable"
)

// TestOpenLayoutStamp: Open stamps a missing or empty data dir (or one
// holding only a stamp's leftover temp file) and reopens it with its
// data; it refuses every other dir — one written before the stamp (by
// 0ea4125's wal engine, or with the deleted file engine's kv/ and
// journal), one stamped with layout 1 (15a522f's wal engine, a queued
// agent carrying a gob wallet; testdata), or one whose stamp is another
// number or garbage — naming the dir and the last commit that reads it
// (or that none does), and leaves it byte for byte as it was. The mem
// engine has no dir: it is never stamped or refused.
func TestOpenLayoutStamp(t *testing.T) {
	fixture := func(name string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", name))); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(name, data string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		engine string
		sync   bool
		absent bool // Dir does not exist yet
		setup  func(t *testing.T, dir string)
		refuse bool
		reader string // the last commit named as reading a refused dir, if any
	}{
		{name: "fresh", engine: "wal"},
		{name: "fresh-sync", engine: "wal", sync: true},
		{name: "absent", engine: "wal", absent: true},
		{name: "leftover-temp", engine: "wal", setup: write("LAYOUT.tmp", "")},
		{name: "wal-0ea4125", engine: "wal", setup: fixture("wal-0ea4125"), refuse: true, reader: "0ea4125"},
		{name: "file-df71a49", engine: "wal", setup: fixture("file-df71a49"), refuse: true, reader: "0ea4125"},
		{name: "wal-15a522f", engine: "wal", setup: fixture("wal-15a522f"), refuse: true, reader: "15a522f"},
		{name: "layout-next", engine: "wal", setup: write("LAYOUT", fmt.Sprintf("%d\n", stable.Layout+1)), refuse: true},
		{name: "layout-garbage", engine: "wal", setup: write("LAYOUT", "\x00garbage"), refuse: true},
		{name: "mem-unstamped", engine: "mem", setup: fixture("wal-0ea4125")},
		{name: "mem-absent", engine: "mem", absent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.absent {
				dir = filepath.Join(dir, "node")
			}
			if tc.setup != nil {
				tc.setup(t, dir)
			}
			before := tree(t, dir)
			spec := stable.Spec{Engine: tc.engine, Dir: dir, Sync: tc.sync}
			s, err := stable.Open(spec)
			if tc.refuse {
				if err == nil {
					_ = stable.Close(s)
					t.Fatal("opened, want a refusal")
				}
				reader := "no commit this runtime knows of reads it"
				if tc.reader != "" {
					reader = tc.reader + " is the last commit that reads it"
				}
				for _, want := range []string{dir, reader} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("refusal %q does not name %q", err, want)
					}
				}
				if after := tree(t, dir); !maps.Equal(after, before) {
					t.Errorf("refused dir changed:\n before %q\n after  %q", before, after)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(stable.Put("k", []byte("v"))); err != nil {
				t.Fatal(err)
			}
			if err := stable.Close(s); err != nil {
				t.Fatal(err)
			}
			if tc.engine == "mem" {
				if after := tree(t, dir); !maps.Equal(after, before) {
					t.Errorf("mem engine touched its dir:\n before %q\n after  %q", before, after)
				}
				return
			}
			got := tree(t, dir)
			if _, tmp := got["LAYOUT.tmp"]; tmp || got["LAYOUT"] != fmt.Sprintf("%d\n", stable.Layout) {
				t.Errorf("stamped dir holds %q, want LAYOUT = %d and no temp file", got, stable.Layout)
			}
			s, err = stable.Open(spec)
			if err != nil {
				t.Fatalf("reopen of a stamped dir: %v", err)
			}
			defer stable.Close(s)
			if v, ok, err := s.Get("k"); err != nil || !ok || string(v) != "v" {
				t.Errorf("reopen lost data: %q %v %v", v, ok, err)
			}
		})
	}
}

// tree maps every file under dir to its contents and every directory to
// "/"; a missing dir is an empty tree.
func tree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return out
	}
	err := fs.WalkDir(os.DirFS(dir), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			out[path] = "/"
			return err
		}
		data, err := os.ReadFile(filepath.Join(dir, path))
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
