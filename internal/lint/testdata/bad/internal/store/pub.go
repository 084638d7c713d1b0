// pub.go seeds the errdrop violations: a durable publish path that drops
// every error the crash gate depends on — a bare Write, a bare Sync, a
// deferred Close and a rename assigned to _.
package store

import "os"

// Publish writes and renames an entry, discarding each durable-IO error a
// different way. Every statement here is a seeded errdrop finding.
func Publish(dir, key string, data []byte) {
	tmp := dir + "/" + key + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	defer f.Close()                 // deferred without capture
	f.Write(data)                   // bare call statement
	f.Sync()                        // bare call statement
	_ = os.Rename(tmp, dir+"/"+key) // assigned to _
}

// Seal renames an entry into place and returns the error properly — the
// violation is the caller in bad/internal/experiments that discards it.
func Seal(path string) error {
	return os.Rename(path+".tmp", path)
}
