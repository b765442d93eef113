package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// stamp identifies what a result was measured on, so results from
// different commits, hosts and seeds can sit side by side in one
// trajectory and a claim can be rechecked on another seed.
type stamp struct {
	// Key names the code measured: the commit when the binary was built
	// from a clean git work tree; otherwise the binary's digest, after
	// the commit it was built on if there is one. A run on uncommitted
	// changes never shares its parent commit's key.
	Key        string  `json:"key"`
	Commit     string  `json:"commit,omitempty"`
	Modified   bool    `json:"modified,omitempty"`
	Binary     string  `json:"binary"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SF         float64 `json:"sf"`
	Seed       uint64  `json:"seed"`
	DataSeed   uint64  `json:"data_seed"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Time       string  `json:"time"`
}

func newStamp(cfg config) stamp {
	st := stamp{
		Binary:     binaryDigest(),
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SF:         cfg.sf,
		Seed:       cfg.seed,
		DataSeed:   cfg.dataSeed(),
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Seconds:    cfg.seconds.Seconds(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Modified = s.Value == "true"
			}
		}
	}
	switch {
	case st.Commit != "" && !st.Modified:
		st.Key = st.Commit
	case st.Commit != "":
		st.Key = st.Commit + "+bin-" + st.Binary
	default:
		st.Key = "bin-" + st.Binary
	}
	return st
}

// appendTrajectory appends one stamped result line; earlier results are
// never rewritten.
func appendTrajectory(path string, st stamp, res *result) error {
	line, err := json.Marshal(struct {
		stamp
		*result
	}{st, res})
	if err != nil {
		return fmt.Errorf("encode trajectory record: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("trajectory: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("trajectory: %w", err)
	}
	return f.Close()
}

// binaryDigest hashes the running executable. run.sh builds with
// -trimpath, so the digest depends on the sources, the toolchain and the
// VCS stamp, not on where the checkout lies.
func binaryDigest() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
