package ps

// StepUp advances op one step toward the program entry: a hoist when the
// op sits under a branch inside its instruction, otherwise a move into
// the predecessor instruction (move-op for ordinary operations, move-cj
// for conditional jumps). This is the primitive the migrate function of
// Figures 4 and 12 iterates.
import "repro/internal/ir"

// StepUp performs one upward step of op, committing the change. It
// returns BlockNone on success; each step refuses a frozen op with
// BlockFrozen.
func (c *Ctx) StepUp(op *ir.Op) Block {
	if op.IsBranch() {
		return c.TryMoveCJUp(op, true)
	}
	v := c.G.Where(op)
	if v != v.Node().Root {
		return c.TryHoist(op, true)
	}
	return c.TryMoveOpUp(op, true, nil)
}

// CanStepUp reports whether StepUp would succeed, without mutating the
// graph. A non-nil excluding is treated as absent from the graph by the
// move-op probe (see TryMoveOpUp); hoist and move-cj probes ignore it.
func (c *Ctx) CanStepUp(op, excluding *ir.Op) Block {
	if op.IsBranch() {
		return c.TryMoveCJUp(op, false)
	}
	v := c.G.Where(op)
	if v != v.Node().Root {
		return c.TryHoist(op, false)
	}
	return c.TryMoveOpUp(op, false, excluding)
}
