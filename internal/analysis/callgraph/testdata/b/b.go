package b

// Dispatcher is an interface with exactly one concrete implementation
// in the package set, so dispatch through it resolves exactly.
type Dispatcher interface {
	Dispatch() int
}

type impl struct{ n int }

// Dispatch implements Dispatcher.
func (i impl) Dispatch() int { return i.n }

// Run dispatches through the interface type.
func Run(d Dispatcher) int {
	return d.Dispatch()
}

// Exported is called from package a.
func Exported() {}

// MethodValue returns a method value: a ref edge, since the method may
// be called through the captured value later.
func MethodValue(i impl) func() int {
	return i.Dispatch
}

// Sizer has two implementations, one of them promoted through an
// embedded field. other has a same-named method with a different
// signature, so it does not implement Sizer and is no dispatch target.
type Sizer interface {
	Size() int
}

type small struct{}

func (small) Size() int { return 1 }

type large struct{ small }

type big struct{}

func (*big) Size() int { return 2 }

type other struct{}

func (other) Size() string { return "" }

// Total fans out to exactly the implementations of Sizer.
func Total(s Sizer) int {
	return s.Size()
}

// Promoted calls the method large inherits from small.
func Promoted(l large) int {
	return l.Size()
}

// Identity is generic; its instantiations resolve to the declaration.
func Identity[T any](x T) T { return x }

// Instances calls Identity with explicit and inferred type arguments.
func Instances() int {
	return Identity[int](1) + Identity(2)
}
