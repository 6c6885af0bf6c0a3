package minic

// LexSized lexes src and reports the token count and the capacity of the
// token slice, so external tests can check the lexer allocates it exactly.
func LexSized(src string) (n, capacity int, err error) {
	toks, err := lex(src)
	return len(toks), cap(toks), err
}
