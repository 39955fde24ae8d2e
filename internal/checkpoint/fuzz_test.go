package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointLoad feeds Load bytes it did not write — a checkpoint is
// a file an operator can edit, truncate or swap. Load must refuse them
// with an error or return a snapshot that is stable: saved and loaded
// again it encodes to the same bytes, so nothing Load accepts is lost or
// reinterpreted by the next run's checkpoints.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.ckpt")
	if err := Save(seedPath, sampleSnapshot()); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"format_version":1,"phase":"send","progress":[]}`))
	f.Add([]byte(`{"format_version":1,"phase":"send","progress":[1],"dedup":{"size":1,"keys":"!"}}`))

	path, again := filepath.Join(dir, "in.ckpt"), filepath.Join(dir, "again.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		snap, err := Load(path)
		if err != nil {
			return
		}
		if err := Save(path, snap); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		reloaded, err := Load(path)
		if err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if err := Save(again, reloaded); err != nil {
			t.Fatal(err)
		}
		first, _ := os.ReadFile(path)
		second, _ := os.ReadFile(again)
		if !bytes.Equal(first, second) {
			t.Fatalf("snapshot changed across a save/load cycle:\n%s\n---\n%s", first, second)
		}
	})
}
