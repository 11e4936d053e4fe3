package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestRenderGolden pins every figure at 3 and 4 FUs. The trace figures
// (Figure 11's Moveable-ops sets among them) print GRiP's picks in
// order, so a change to the scheduler's pick order shows up here even
// when every Table 1 cell stays the same.
func TestRenderGolden(t *testing.T) {
	for _, fus := range []int{3, 4} {
		var buf bytes.Buffer
		if err := render(&buf, "all", fus); err != nil {
			t.Fatalf("fus=%d: %v", fus, err)
		}
		path := fmt.Sprintf("testdata/figures_fus%d.golden", fus)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gl, cl := strings.Split(string(golden), "\n"), strings.Split(buf.String(), "\n")
		for i := 0; i < len(gl) || i < len(cl); i++ {
			var g, c string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(cl) {
				c = cl[i]
			}
			if g != c {
				t.Errorf("fus=%d: output differs from %s at line %d: got %q, want %q", fus, path, i+1, c, g)
				break
			}
		}
	}
}

// TestRenderRejectsBadFlags: a figure outside the list or an FU count
// below 1 is refused before anything is written.
func TestRenderRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		fig string
		fus int
	}{{"42", 3}, {"", 3}, {"all", 0}, {"5", -1}} {
		var buf bytes.Buffer
		err := render(&buf, c.fig, c.fus)
		var bad flagError
		if !errors.As(err, &bad) {
			t.Errorf("render(%q, %d) = %v, want a flagError", c.fig, c.fus, err)
		}
		if buf.Len() != 0 {
			t.Errorf("render(%q, %d) wrote %q before refusing", c.fig, c.fus, buf.String())
		}
	}
}
