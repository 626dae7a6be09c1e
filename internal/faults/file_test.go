package faults

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/leaktest"
)

// TestCrashRacesWritesAndSyncs runs Write and Sync on CrashFS files
// while Crash runs. Crash holds fs.mu while it takes each file's mu, so
// Write and Sync, which hold their file's mu, must count into the
// shared stats under statsMu and never under fs.mu: the two orders
// deadlock the first time they meet.
func TestCrashRacesWritesAndSyncs(t *testing.T) {
	inj, err := NewInjector(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for round := 0; round < 20; round++ {
		fs, err := NewCrashFS(inj)
		if err != nil {
			t.Fatal(err)
		}
		var started, stopped sync.WaitGroup
		for i := 0; i < 4; i++ {
			f, err := fs.Open(filepath.Join(dir, fmt.Sprintf("r%d-f%d", round, i)))
			if err != nil {
				t.Fatal(err)
			}
			started.Add(1)
			stopped.Add(1)
			go func() {
				defer stopped.Done()
				_, err := f.Write([]byte("record\n"))
				started.Done()
				for err == nil {
					if _, err = f.Write([]byte("record\n")); err == nil {
						err = f.Sync()
					}
				}
			}()
		}
		started.Wait()
		leaktest.Within(t, 5*time.Second, fmt.Sprintf("round %d: Crash racing Write and Sync", round), func() {
			fs.Crash()
			stopped.Wait()
		})
	}
}
