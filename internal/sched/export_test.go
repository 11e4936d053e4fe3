package sched

import "context"

// RunMemoLen reports how many phase-1 results the run memo ctx carries
// holds, or -1 when ctx carries none.
func RunMemoLen(ctx context.Context) int {
	if memo := runMemo(ctx); memo != nil {
		return memo.Len()
	}
	return -1
}
