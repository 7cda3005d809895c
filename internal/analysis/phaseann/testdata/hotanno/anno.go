package hotanno

//horselint:hotpath
func fine() int { return 1 }

//horselint:hotpath
//horselint:hotpath
func dup() int { return 2 } // want `duplicate //horselint:hotpath directives on dup`
