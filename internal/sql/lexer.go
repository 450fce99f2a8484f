package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam
	tokSymbol
)

type token struct {
	kind tokenKind
	text string // identifiers are lower-cased; strings are unquoted
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// lex tokenizes one SQL statement.
func lex(input string) ([]token, error) {
	// Sized once: even a bare value list ("$1,$2,…") spends two bytes a
	// token, so SQL as the workloads write it never regrows this.
	toks := make([]token, 0, len(input)/2+2)
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) && (isIdentChar(rune(input[i]))) {
				i++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(input[start:i]), start})
		case unicode.IsDigit(c) || (c == '.' && i+1 < len(input) && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot := false
			for i < len(input) {
				d := rune(input[i])
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				if !unicode.IsDigit(d) {
					break
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			i++
			var sb strings.Builder
			for {
				if i >= len(input) {
					return nil, fmt.Errorf("sql: unterminated string literal")
				}
				if input[i] == '\'' {
					if i+1 < len(input) && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			toks = append(toks, token{tokString, sb.String(), i})
		case c == '$':
			start := i
			i++
			for i < len(input) && unicode.IsDigit(rune(input[i])) {
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("sql: bare $ at position %d", start)
			}
			toks = append(toks, token{tokParam, input[start+1 : i], start})
		case strings.ContainsRune("(),;*=+-/", c):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '<':
			if i+1 < len(input) && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{tokSymbol, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokSymbol, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, ">", i})
				i++
			}
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokSymbol, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at position %d", i)
			}
		case c == '.':
			toks = append(toks, token{tokSymbol, ".", i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
