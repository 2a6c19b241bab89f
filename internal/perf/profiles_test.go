package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "x.prof")
	for i, tc := range []struct {
		name     string
		cpu, mem string
		wantErr  string // flag the error must name; "" = success
	}{
		{"both empty", "", "", ""},
		{"bad cpu path", bad, "", "-cpuprofile"},
		{"bad mem path", filepath.Join(dir, "cpu-a.prof"), bad, "-memprofile"},
		{"both valid", filepath.Join(dir, "cpu-b.prof"), filepath.Join(dir, "mem.prof"), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stop, err := StartProfiles(tc.cpu, tc.mem)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
				}
				// A failed start leaves no CPU profile running, so the
				// next start succeeds.
				stop, err := StartProfiles(filepath.Join(dir, fmt.Sprintf("again-%d.prof", i)), "")
				if err != nil {
					t.Fatalf("start after a failed start: %v", err)
				}
				if err := stop(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := stop(); err != nil {
				t.Fatalf("stop: %v", err)
			}
			for _, path := range []string{tc.cpu, tc.mem} {
				if path == "" {
					continue
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
					t.Fatalf("%s: %d bytes, not a gzip profile", path, len(b))
				}
			}
		})
	}
}
