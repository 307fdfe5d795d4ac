package ccode

// LexPooled exposes the package's internal pooled lexing pass to the
// external tests: it lexes through lexInto into a pooled buffer and
// returns a copy of the tokens.
func LexPooled(src string) []CToken {
	buf := lexPooled(src)
	defer release(buf)
	return append([]CToken(nil), *buf...)
}
