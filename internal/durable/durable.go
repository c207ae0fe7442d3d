// Package durable is the repository's one implementation of crash-safe
// file storage: a log of JSON records, one checksummed line each (the job
// journal and the synthesis-cache journal), and an atomic whole-file
// replace (log compaction and questd's artifact store). DESIGN.md §4i
// describes both.
//
// Line format: "<16 lowercase hex digits> <payload>\n", the hex being the
// FNV-1a 64 checksum of the payload. The first line is a header. Replay
// trusts only complete lines whose checksum verifies, and Open cuts a
// torn tail off before anything is appended, so a new record never lands
// on the torn bytes of an old one.
//
// Every fsync goes through the Fsync seam. Log.Commit appends and fsyncs,
// Log.Append only writes, Log.Close fsyncs what is left: internal/jobs
// commits each transition before acknowledging it, internal/ucache
// appends best-effort. WriteFileAtomic and Log.Rewrite fsync a temporary
// file, rename it into place and fsync the directory. A log created by
// Open has its directory fsynced; its header rides the first Commit or
// Close.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Fsync is the package's one fsync seam: it syncs log files, the
// temporary file of every atomic replace, and the directory of every
// created or renamed file. Tests swap it to observe or fail those
// durability points.
var Fsync = func(f *os.File) error { return f.Sync() }

// Line renders payload as one log line: "<fnv64a hex> <payload>\n".
func Line(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+18)
	out = fmt.Appendf(out, "%016x ", checksum(payload))
	out = append(out, payload...)
	return append(out, '\n')
}

// parseLine returns the payload of one line (without its newline) if the
// checksum prefix is exactly the one Line writes for it.
func parseLine(line []byte) ([]byte, bool) {
	if len(line) < 17 || line[16] != ' ' {
		return nil, false
	}
	payload := line[17:]
	return payload, bytes.Equal(line[:16], fmt.Appendf(nil, "%016x", checksum(payload)))
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// replay splits log bytes into verified payloads. head is the first
// line's payload, nil when that line is torn or fails its checksum — and
// then nothing else is trusted either. Otherwise body holds the payload
// of every later complete line that verifies, in order, and lines counts
// the complete lines after the header, verified or not. end is the length
// of the complete-line prefix; bytes after it are a torn tail.
func replay(data []byte) (head []byte, body [][]byte, lines, end int) {
	end = bytes.LastIndexByte(data, '\n') + 1
	rest := data[:end]
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		payload, ok := parseLine(rest[:i])
		rest = rest[i+1:]
		switch {
		case head == nil && !ok:
			return nil, nil, 0, end
		case head == nil:
			head = payload
		default:
			lines++
			if ok {
				body = append(body, payload)
			}
		}
	}
	return head, body, lines, end
}

var errClosed = errors.New("log closed")

// Log is an append-only log of JSON records of type R after a header
// line. It is not safe for concurrent use. The first encode, write or
// sync failure latches: later appends are dropped, and Commit, Rewrite
// and Close report it.
type Log[R any] struct {
	path   string
	header []byte // header payload, the first line of every Rewrite
	f      *os.File
	lines  int // record lines in the file, verified or not
	err    error
}

// Open opens the log at path for appending and replays it. head is the
// decoded header, nil if the first line is torn, fails its checksum or
// does not decode; body holds, in file order, every later record whose
// line verifies and decodes (nil when head is). A missing or empty file
// is created in place holding just header, with its directory fsynced.
// When the header line verifies, a torn tail is cut off and the cut
// fsynced, so the next append starts a line of its own.
func Open[H, R any](path string, header H) (l *Log[R], head *H, body []R, err error) {
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	l = &Log[R]{path: path, header: hdr, f: f}
	rawHead, raw, lines, end := replay(data)
	l.lines = lines
	switch {
	case len(data) == 0:
		if err = syncDir(path); err == nil {
			l.writeLine(hdr)
			rawHead, l.lines, err = hdr, 0, l.err
		}
	case rawHead != nil && end < len(data):
		if err = f.Truncate(int64(end)); err == nil {
			err = fsync(f)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	var h H
	if json.Unmarshal(rawHead, &h) != nil {
		return l, nil, nil, nil
	}
	for _, payload := range raw {
		var rec R
		if json.Unmarshal(payload, &rec) == nil {
			body = append(body, rec)
		}
	}
	return l, &h, body, nil
}

// Len returns the number of record lines in the log file, including
// superseded and unverifiable ones: the caller's measure of when to
// compact.
func (l *Log[R]) Len() int { return l.lines }

// Append writes rec as one line without syncing it; durability comes from
// a later Commit, Close or Rewrite.
func (l *Log[R]) Append(rec R) {
	if l.failed() != nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		l.err = err
		return
	}
	l.writeLine(payload)
}

func (l *Log[R]) writeLine(payload []byte) {
	if _, err := l.f.Write(Line(payload)); err != nil {
		l.err = err
		return
	}
	l.lines++
}

// Commit appends rec and fsyncs the log: when it returns nil, that record
// and every one before it survive power loss.
func (l *Log[R]) Commit(rec R) error {
	l.Append(rec)
	if l.failed() == nil {
		l.err = fsync(l.f)
	}
	return l.err
}

// Rewrite compacts the log: it atomically replaces the file with the
// header plus body (see WriteFileAtomic) and reopens it for appending.
func (l *Log[R]) Rewrite(body []R) error {
	if l.failed() != nil {
		return l.err
	}
	buf := Line(l.header)
	for _, rec := range body {
		payload, err := json.Marshal(rec)
		if err != nil {
			l.err = err
			return err
		}
		buf = append(buf, Line(payload)...)
	}
	if err := WriteFileAtomic(l.path, buf); err != nil {
		l.err = err
		return err
	}
	l.f.Close()
	l.f, l.err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	l.lines = len(body)
	return l.err
}

// failed returns the latched failure, latching errClosed first when the
// log has been closed.
func (l *Log[R]) failed() error {
	if l.err == nil && l.f == nil {
		l.err = errClosed
	}
	return l.err
}

// Close fsyncs and closes the log, reporting the first failure over its
// lifetime. Closing a closed log only reports that failure again.
func (l *Log[R]) Close() error {
	if l.f == nil {
		return l.err
	}
	if l.err == nil {
		l.err = fsync(l.f)
	}
	if err := l.f.Close(); l.err == nil {
		l.err = err
	}
	l.f = nil
	return l.err
}

// WriteFileAtomic replaces the file at path with data so that a crash
// leaves either the old contents or the new, never a mix: the bytes go to
// path+".tmp", which is fsynced and renamed over path, and then the
// directory is fsynced so the rename itself survives power loss. Callers
// serialize replaces of one path.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory holding path, making a creation or rename
// of path durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// fsync syncs f through the Fsync seam, naming f in the error.
func fsync(f *os.File) error {
	if err := Fsync(f); err != nil {
		return fmt.Errorf("sync %s: %w", f.Name(), err)
	}
	return nil
}
