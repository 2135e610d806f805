package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host fingerprints the machine and the sources a report came from, so
// that reports from different hosts or commits are not compared as if
// they were alike.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// Sources hashes the module's Go sources, which identifies the code
	// where no commit is known.
	Sources string `json:"sources"`
	Seed    int64  `json:"seed"`
	// CalibrationNs is the per-step time of a fixed arithmetic loop that
	// no change to the repository can speed up: if it moves, the host
	// did.
	CalibrationNs float64 `json:"calibration_ns"`
}

func fingerprint(root, commit string, seed int64) host {
	if commit == "" {
		commit = "unknown"
	}
	return host{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Go:            runtime.Version(),
		Commit:        commit,
		Sources:       sourceHash(root),
		Seed:          seed,
		CalibrationNs: medianOf(21, calibrate),
	}
}

func (h host) String() string {
	out, err := json.Marshal(h)
	if err != nil {
		return err.Error()
	}
	return string(out)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash is a SHA-256 over the paths and contents of every .go file
// and go.mod under root, skipping hidden and build directories; "unknown"
// if root cannot be read.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibrate times a dependent chain of floating-point multiply-adds, in
// nanoseconds per step. Its speed depends only on the core's clock and
// load.
func calibrate() float64 {
	const steps = 1 << 20
	x := 1.0
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		x = x*0.999999 + 1e-6
	}
	ns := float64(time.Since(t0).Nanoseconds()) / steps
	calibrationSink = x
	return ns
}

// calibrationSink keeps the calibration loop from being optimised away.
var calibrationSink float64
