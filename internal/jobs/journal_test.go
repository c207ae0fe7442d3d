package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	j := &Job{ID: "j-00000001", QASM: "x", State: Queued}
	must := func(rec record) {
		t.Helper()
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(record{Op: "submit", Job: j})
	must(record{Op: "start", ID: j.ID, Attempt: 1})
	must(record{Op: "done", ID: j.ID, Artifact: "abc", AEps: 0.05, SHA: "deadbeef"})
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	jn2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Op != "submit" || recs[0].Job == nil || recs[0].Job.ID != j.ID {
		t.Errorf("submit record did not round-trip: %+v", recs[0])
	}
	if recs[2].Op != "done" || recs[2].SHA != "deadbeef" || recs[2].Artifact != "abc" {
		t.Errorf("done record did not round-trip: %+v", recs[2])
	}
}

func TestJournalSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "submit", Job: &Job{ID: "j-00000001"}}); err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "start", ID: "j-00000001", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	// A crash can tear the final line mid-write: truncate it.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	jn2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(recs) != 1 || recs[0].Op != "submit" {
		t.Fatalf("replay after torn tail = %+v, want just the submit", recs)
	}
}

func TestJournalBadHeaderStartsFresh(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("not a journal at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from a foreign file", len(recs))
	}
	old, err := os.ReadFile(path + ".old")
	if err != nil || !strings.Contains(string(old), "not a journal") {
		t.Errorf("foreign journal was not preserved as .old: %v", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := jn.append(record{Op: "start", ID: "j-00000001", Attempt: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !jn.needsCompaction(1) {
		// 10 records > 6·1 but below compactMin; the bound must respect
		// the minimum.
		if compactMin <= 10 {
			t.Fatal("needsCompaction(1) = false with 10 records")
		}
	}
	snap := &Job{ID: "j-00000001", State: Done, ResultSHA: "abc"}
	if err := jn.compact([]record{{Op: "state", Job: snap}}); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction must land in the new file.
	if err := jn.append(record{Op: "cancel", ID: "j-00000002"}); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	jn2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(recs) != 2 || recs[0].Op != "state" || recs[1].Op != "cancel" {
		t.Fatalf("replay after compaction = %+v", recs)
	}
	if recs[0].Job == nil || recs[0].Job.ResultSHA != "abc" {
		t.Errorf("state snapshot lost fields: %+v", recs[0].Job)
	}
}

// TestJournalAppendAfterTornTailSurvives: recovery appends right after
// the point where a crash tore the journal (questd's recovery `fail`
// records, or the next acknowledged submit). That record must not land
// on the torn bytes, or the next replay drops it as corrupt.
func TestJournalAppendAfterTornTailSurvives(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "submit", Job: &Job{ID: "j-00000001"}}); err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "start", ID: "j-00000001", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	tearJournalTail(t, dir, 7)

	jn, _, err = openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "cancel", ID: "j-00000001"}); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	jn, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(recs) != 2 || recs[0].Op != "submit" || recs[1].Op != "cancel" {
		t.Fatalf("replay = %+v, want the submit and the cancel appended after the tear", recs)
	}
}

// TestJournalFormatUnchanged pins on-disk compatibility:
// testdata/jobs.journal was written by the job journal as it stood
// before it moved onto internal/durable (two jobs run to done, one
// cancelled, one left queued). Its records must replay, and appending
// them to a fresh journal must reproduce the file byte for byte.
func TestJournalFormatUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", journalName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), want, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, rec := range recs {
		ops = append(ops, rec.Op)
	}
	if got := strings.Join(ops, " "); got != "submit start done submit start done submit cancel submit" {
		t.Fatalf("replayed ops %q", got)
	}

	fresh := t.TempDir()
	jn, _, err = openJournal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-journaled records differ from the committed journal:\n got %q\nwant %q", got, want)
	}

	// The manager rebuilds the same job states from it.
	opts := testOpts(t)
	opts.Dir = dir
	opts.Workers = -1
	m := openManager(t, opts)
	for id, state := range map[string]State{
		"j-00000001": Done, "j-00000002": Done, "j-00000004": Cancelled, "j-00000005": Queued,
	} {
		if j, ok := m.Get(id); !ok || j.State != state {
			t.Errorf("job %s = %v (found %v), want %s", id, j.State, ok, state)
		}
	}
}
