package service

import "testing"

func TestIntSqrt(t *testing.T) {
	for n, want := range map[int]int{1: 1, 4: 2, 10: 4, 16: 4, 17: 5} {
		if got := intSqrt(n); got != want {
			t.Errorf("intSqrt(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestBuildGraphRejectsDegenerate: every size the generators cannot
// build is an error, not a panic.
func TestBuildGraphRejectsDegenerate(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		n, rows int
	}{
		{"random", 0, 0},
		{"path", -1, 0},
		{"ring", 2, 0},
		{"grid", 4, 5},
		{"torus", 8, 0},
	} {
		if _, err := BuildGraph(tc.kind, tc.n, 0, tc.rows, 0, 1); err == nil {
			t.Errorf("BuildGraph(%s, n=%d, rows=%d): want error", tc.kind, tc.n, tc.rows)
		}
	}
}
