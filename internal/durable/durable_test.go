package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// syncRecorder swaps the Fsync seam for one that records the name of
// every synced file or directory, in call order, and restores the real
// seam on cleanup.
type syncRecorder struct {
	mu    sync.Mutex
	names []string
	err   error // injected failure, if any
}

func recordSyncs(t *testing.T) *syncRecorder {
	t.Helper()
	rec := &syncRecorder{}
	prev := Fsync
	Fsync = func(f *os.File) error {
		rec.mu.Lock()
		rec.names = append(rec.names, f.Name())
		err := rec.err
		rec.mu.Unlock()
		if err != nil {
			return err
		}
		return prev(f)
	}
	t.Cleanup(func() { Fsync = prev })
	return rec
}

func (r *syncRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.names
	r.names = nil
	return out
}

// mustOpen opens a log of string records under a string header; a
// missing header reads as "".
func mustOpen(t *testing.T, path, header string) (*Log[string], string, []string) {
	t.Helper()
	l, head, body, err := Open[string, string](path, header)
	if err != nil {
		t.Fatal(err)
	}
	if head == nil {
		return l, "", body
	}
	return l, *head, body
}

// jsonLine is the log line of a string record.
func jsonLine(s string) []byte { return Line([]byte(`"` + s + `"`)) }

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, head, body := mustOpen(t, path, "H")
	if head != "H" || body != nil {
		t.Fatalf("fresh log replayed head %q body %q", head, body)
	}
	l.Append("a")
	if err := l.Commit("b"); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{jsonLine("H"), jsonLine("a"), jsonLine("b")}, nil)
	if !bytes.Equal(data, want) {
		t.Fatalf("file = %q, want %q", data, want)
	}

	l, head, body = mustOpen(t, path, "ignored for an existing log")
	defer l.Close()
	if head != "H" || !slices.Equal(body, []string{"a", "b"}) || l.Len() != 2 {
		t.Fatalf("reopen = head %q body %q len %d", head, body, l.Len())
	}
}

func TestReplaySkipsCorruptLines(t *testing.T) {
	data := bytes.Join([][]byte{
		Line([]byte("H")),
		Line([]byte("one")),
		[]byte("0000000000000000 two\n"), // checksum mismatch
		[]byte("\n"),                     // empty line
		Line([]byte("three")),
	}, nil)
	head, body, lines, end := replay(data)
	if string(head) != "H" || len(body) != 2 || string(body[0]) != "one" || string(body[1]) != "three" {
		t.Fatalf("replay = head %q body %q", head, body)
	}
	if lines != 4 || end != len(data) {
		t.Fatalf("lines, end = %d, %d; want 4, %d", lines, end, len(data))
	}
	// A corrupt header trusts nothing.
	bad := append([]byte("x"), data...)
	if head, body, _, _ := replay(bad); head != nil || body != nil {
		t.Fatalf("corrupt header replayed head %q body %q", head, body)
	}
	// Upper-case hex is not what Line writes, so it does not verify.
	line := Line([]byte("H"))
	upper := append(bytes.ToUpper(line[:16]), line[16:]...)
	if !bytes.Equal(upper, line) {
		if head, _, _, _ := replay(upper); head != nil {
			t.Fatalf("upper-case checksum verified: %q", upper)
		}
	}
}

// TestAppendAfterTornTailSurvives is the regression for the torn-tail
// defect: a record appended after a crash tore the previous one must not
// land on the torn bytes, or the next replay drops it as corrupt.
func TestAppendAfterTornTailSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _, _ := mustOpen(t, path, "H")
	l.Append("intact")
	l.Append("torn-record")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l, _, body := mustOpen(t, path, "H")
	if !slices.Equal(body, []string{"intact"}) {
		t.Fatalf("replay after tear = %q", body)
	}
	if err := l.Commit("after"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, body = mustOpen(t, path, "H")
	defer l.Close()
	if !slices.Equal(body, []string{"intact", "after"}) {
		t.Fatalf("record appended after the tear did not replay: %q", body)
	}
}

func TestRewriteCompactsAndKeepsAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _, _ := mustOpen(t, path, "H")
	for _, rec := range []string{"a", "b", "c"} {
		l.Append(rec)
	}
	if err := l.Rewrite([]string{"c"}); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after rewrite = %d, want 1", l.Len())
	}
	if err := l.Commit("d"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, head, body := mustOpen(t, path, "H")
	defer l.Close()
	if head != "H" || !slices.Equal(body, []string{"c", "d"}) {
		t.Fatalf("after rewrite = head %q body %q", head, body)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (stat err %v)", err)
	}
}

// TestDirectoryIsSyncedAfterCreateAndReplace pins the directory fsync:
// a newly created log, and every atomic replace after its temporary file
// is synced, must be followed by a sync of the containing directory, or
// the new name can vanish in a power cut.
func TestDirectoryIsSyncedAfterCreateAndReplace(t *testing.T) {
	rec := recordSyncs(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")

	l, _, _ := mustOpen(t, path, "H")
	if got := rec.take(); !slices.Equal(got, []string{dir}) {
		t.Fatalf("creating a log synced %q, want just the directory", got)
	}
	if err := l.Rewrite([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if got := rec.take(); !slices.Equal(got, []string{path + ".tmp", dir}) {
		t.Fatalf("rewrite synced %q, want the temporary file then the directory", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec.take()

	art := filepath.Join(dir, "art.json")
	if err := WriteFileAtomic(art, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := rec.take(); !slices.Equal(got, []string{art + ".tmp", dir}) {
		t.Fatalf("WriteFileAtomic synced %q, want the temporary file then the directory", got)
	}
	if data, err := os.ReadFile(art); err != nil || string(data) != "{}" {
		t.Fatalf("replaced file = %q, %v", data, err)
	}

	// Reopening an existing, intact log creates nothing and syncs nothing.
	l, _, _ = mustOpen(t, path, "H")
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("reopening an intact log synced %q", got)
	}
	l.Close()
}

func TestWriteFileAtomicSyncFailureKeepsOldContents(t *testing.T) {
	rec := recordSyncs(t)
	boom := errors.New("injected sync failure")
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec.err = boom
	if err := WriteFileAtomic(path, []byte("new")); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want the injected sync failure", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "old" {
		t.Fatalf("failed replace left %q, want the old contents", data)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (stat err %v)", err)
	}
}

func TestFailureLatches(t *testing.T) {
	rec := recordSyncs(t)
	boom := errors.New("injected sync failure")
	path := filepath.Join(t.TempDir(), "x.log")
	l, _, _ := mustOpen(t, path, "H")
	rec.err = boom
	if err := l.Commit("a"); !errors.Is(err, boom) {
		t.Fatalf("Commit = %v, want the injected sync failure", err)
	}
	rec.err = nil
	if err := l.Commit("b"); !errors.Is(err, boom) {
		t.Fatalf("Commit after a failure = %v, want the latched failure", err)
	}
	if err := l.Rewrite(nil); !errors.Is(err, boom) {
		t.Fatalf("Rewrite after a failure = %v, want the latched failure", err)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the latched failure", err)
	}
}

// FuzzReplay feeds arbitrary bytes to replay: it must never panic, and
// every payload it returns must re-encode to a whole line of the input,
// in input order, so nothing is trusted that Line did not write.
func FuzzReplay(f *testing.F) {
	for _, name := range []string{
		filepath.Join("..", "jobs", "testdata", "jobs.journal"),
		filepath.Join("..", "ucache", "testdata", "synth.journal"),
	} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-7]) // torn tail
	}
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add(append(Line([]byte("H")), "0000000000000000 x\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		head, body, lines, end := replay(data)
		if end < 0 || end > len(data) || (end > 0 && data[end-1] != '\n') {
			t.Fatalf("end = %d is not a line boundary of %d bytes", end, len(data))
		}
		if head == nil {
			if body != nil || lines != 0 {
				t.Fatalf("untrusted header but body %q, lines %d", body, lines)
			}
			return
		}
		if len(body) > lines {
			t.Fatalf("%d payloads from %d lines", len(body), lines)
		}
		if !bytes.HasPrefix(data, Line(head)) {
			t.Fatalf("header %q does not re-encode to the first line", head)
		}
		off := 0
		for _, p := range append([][]byte{head}, body...) {
			line := Line(p)
			i := bytes.Index(data[off:end], line)
			if i < 0 || (off+i > 0 && data[off+i-1] != '\n') {
				t.Fatalf("payload %q does not re-encode to a line of the input", p)
			}
			off += i + len(line)
		}
	})
}

func TestOpenSkipsRecordsThatDoNotDecode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	data := bytes.Join([][]byte{jsonLine("H"), Line([]byte("42")), jsonLine("x")}, nil)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, head, body := mustOpen(t, path, "H")
	if head != "H" || !slices.Equal(body, []string{"x"}) || l.Len() != 2 {
		t.Fatalf("replay = head %q body %q len %d; want H, [x], 2", head, body, l.Len())
	}
	l.Close()

	// A verified header that does not decode is no header.
	if err := os.WriteFile(path, append(Line([]byte("42")), jsonLine("x")...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, head, body = mustOpen(t, path, "H")
	defer l.Close()
	if head != "" || body != nil {
		t.Fatalf("undecodable header replayed head %q body %q", head, body)
	}
}
