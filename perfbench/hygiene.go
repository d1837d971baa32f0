package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// tree is a snapshot of the checkout outside buildDir: every file's
// size and modification time, plus `git status` where the checkout is a
// git repository. A run must leave it unchanged.
type tree struct {
	files map[string]string
	git   string
}

func snapshot() (tree, error) {
	t := tree{files: map[string]string{}}
	// A caller may send this process's output to a file in the checkout;
	// that file grows during the run by design.
	own := outputFiles()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == buildDir || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || own[path] {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		t.files[path] = fmt.Sprintf("%d %d", info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		return t, fmt.Errorf("snapshot of the checkout: %w", err)
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			t.git = string(out)
		}
	}
	return t, nil
}

// outputFiles returns the checkout-relative paths of the files this
// process's standard output and error are written to.
func outputFiles() map[string]bool {
	own := map[string]bool{}
	wd, err := os.Getwd()
	if err != nil {
		return own
	}
	for _, fd := range []string{"/proc/self/fd/1", "/proc/self/fd/2"} {
		if target, err := os.Readlink(fd); err == nil {
			if rel, err := filepath.Rel(wd, target); err == nil {
				own[rel] = true
			}
		}
	}
	return own
}

// diff describes how after differs from t, or returns "".
func (t tree) diff(after tree) string {
	var changed []string
	for p, v := range after.files {
		if t.files[p] != v {
			changed = append(changed, p)
		}
	}
	for p := range t.files {
		if _, ok := after.files[p]; !ok {
			changed = append(changed, p+" (removed)")
		}
	}
	sort.Strings(changed)
	if t.git != after.git {
		changed = append(changed, "git status: "+strings.TrimSpace(after.git))
	}
	return strings.Join(changed[:min(len(changed), 10)], ", ")
}
