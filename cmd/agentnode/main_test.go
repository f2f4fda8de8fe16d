package main

import (
	"io/fs"
	"log/slog"
	"maps"
	"os"
	"strings"
	"testing"

	"repro/internal/stable"
)

func testLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("a=h1:1, b=h2:2,c=h3:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers["b"] != "h2:2" {
		t.Errorf("peers = %v", peers)
	}
	if got, err := parsePeers(""); err != nil || len(got) != 0 {
		t.Errorf("empty: %v, %v", got, err)
	}
	for _, bad := range []string{"noequals", "=addr", "name="} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("bad peer %q accepted", bad)
		}
	}
}

func TestParseResources(t *testing.T) {
	factories, err := parseResources("bank=b1,shop=s1,dir=d1,exchange=e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(factories) != 4 {
		t.Fatalf("factories = %d, want 4", len(factories))
	}
	store := stable.NewMemStore(nil)
	names := map[string]string{}
	for _, f := range factories {
		r, err := f(store)
		if err != nil {
			t.Fatal(err)
		}
		names[r.Name()] = r.Kind()
	}
	want := map[string]string{"b1": "bank", "s1": "shop", "d1": "directory", "e1": "exchange"}
	for n, k := range want {
		if names[n] != k {
			t.Errorf("resource %q kind = %q, want %q", n, names[n], k)
		}
	}
	if _, err := parseResources("alien=x"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := parseResources("nokind"); err == nil {
		t.Error("malformed spec accepted")
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-name", "A"}); err == nil {
		t.Error("missing listen/data accepted")
	}
}

// TestOpenStoreLayoutGuard: a data dir written by the removed file engine
// (testdata: kv/ with one value file, and a pending journal) must be
// refused, never silently started empty, and left byte-for-byte as it
// was; -store=file itself is refused; a wal dir reopens with its data.
func TestOpenStoreLayoutGuard(t *testing.T) {
	spec := func(engine, dir string) stable.Spec {
		return stable.Spec{Engine: engine, Dir: dir}
	}
	fixture := os.DirFS("testdata")
	fileDir := t.TempDir()
	if err := os.CopyFS(fileDir, fixture); err != nil {
		t.Fatal(err)
	}
	if s, err := openStore(spec("wal", fileDir), testLogger()); err == nil {
		_ = stable.Close(s)
		t.Error("wal engine opened a file-engine data dir")
	} else if msg := err.Error(); !strings.Contains(msg, fileDir) ||
		!strings.Contains(msg, "file engine was removed") || !strings.Contains(msg, "last commit that reads it") {
		t.Errorf("refusal does not name the dir, the removal and the last commit: %v", err)
	}
	if got, want := tree(t, os.DirFS(fileDir)), tree(t, fixture); !maps.Equal(got, want) {
		t.Errorf("refused data dir changed: %q, want %q", got, want)
	}
	if _, err := openStore(spec("file", t.TempDir()), testLogger()); err == nil || !strings.Contains(err.Error(), `unknown engine "file"`) {
		t.Errorf("-store=file not refused: %v", err)
	}

	walDir := t.TempDir()
	ws, err := openStore(spec("wal", walDir), testLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Apply(stable.Put("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	_ = stable.Close(ws)
	ws2, err := openStore(spec("wal", walDir), testLogger())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ws2.Get("k"); !ok || string(v) != "v" {
		t.Errorf("wal reopen lost data: %q %v", v, ok)
	}
	_ = stable.Close(ws2)

	if _, err := openStore(spec("papyrus", t.TempDir()), testLogger()); err == nil {
		t.Error("unknown engine accepted")
	}
}

// tree maps every directory and file under fsys to its contents ("" for a
// directory).
func tree(t *testing.T, fsys fs.FS) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[path+"/"] = ""
			return nil
		}
		data, err := fs.ReadFile(fsys, path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunRejectsRepl: the standalone process has no peers to hold
// replicas; -repl must be refused up front, not silently ignored.
func TestRunRejectsRepl(t *testing.T) {
	err := run([]string{"-name", "A", "-listen", ":0", "-data", t.TempDir(), "-repl", "2"})
	if err == nil || !strings.Contains(err.Error(), "-repl") {
		t.Errorf("standalone -repl accepted: %v", err)
	}
}
