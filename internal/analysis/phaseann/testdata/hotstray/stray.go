package hotstray

// The directive below annotates a variable, not a function; the stray
// case is asserted by a direct unit test because the diagnostic lands
// on the directive comment's own line, where a want comment cannot sit.

//horselint:hotpath
var notAFunc int

func body() {
	//horselint:hotpath
	_ = notAFunc
}
