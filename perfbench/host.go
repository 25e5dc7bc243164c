package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo fingerprints where a result was measured: figures are only
// comparable between results with the same fingerprint.
type hostInfo struct {
	Cores      int    `json:"cores"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit identifies the code measured: "src:" plus a digest of the
	// module's Go sources as they are in the checkout, committed or not
	// (a benchmark checkout need not be a git repository).
	Commit string `json:"commit"`
}

func fingerprint() hostInfo {
	return hostInfo{
		Cores:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "src:" + sourceDigest("."),
	}
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

// sourceDigest hashes the module's go.mod and non-test Go sources
// outside the benchmark's own directory and the build directory, in
// path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", buildDir, "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if p == "go.mod" || (strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
