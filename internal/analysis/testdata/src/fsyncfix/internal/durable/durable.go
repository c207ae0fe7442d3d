// Package durable impersonates the real internal/durable package so the
// fsyncorder fixtures run against the package scope the check guards.
package durable

import "os"

// Fsync mirrors the real package's one fsync seam: an exported
// func-typed variable the analyzer classifies by name.
var Fsync = func(f *os.File) error { return f.Sync() }

// The canonical atomic replace: write, sync through the seam, rename,
// then ack.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := Fsync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return nil
}

// Renaming an unsynced image over the target can leave an empty file
// under the live name after a power cut.
func writeFileUnsynced(path string, data []byte) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return nil // want `f written but not synced on this path`
}
