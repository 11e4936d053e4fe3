package ir

// Alloc hands out registers, arrays, and operation instance IDs.
type Alloc struct {
	nextReg   Reg
	nextArray Array
	nextOp    int
	arrByName map[string]Array
}

// NewAlloc returns an empty allocator.
func NewAlloc() *Alloc {
	return &Alloc{
		nextReg:   1,
		nextArray: 1,
		nextOp:    1,
		arrByName: make(map[string]Array),
	}
}

// Reg allocates a fresh register.
func (a *Alloc) Reg() Reg {
	r := a.nextReg
	a.nextReg++
	return r
}

// Array returns the array with the given name, allocating it on first use.
func (a *Alloc) Array(name string) Array {
	if id, ok := a.arrByName[name]; ok {
		return id
	}
	id := a.nextArray
	a.nextArray++
	a.arrByName[name] = id
	return id
}

// OpID allocates a fresh operation instance ID.
func (a *Alloc) OpID() int {
	id := a.nextOp
	a.nextOp++
	return id
}
