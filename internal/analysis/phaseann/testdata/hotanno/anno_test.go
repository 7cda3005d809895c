package hotanno

//horselint:hotpath
func inTest() int { return 3 } // want `hot-path annotations belong in production code`
