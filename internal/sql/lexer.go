package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"tscout/internal/storage"
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
	pos  int    // offset of the token's first byte
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

// keywords maps the upper-case spelling of every word the parser matches
// to its lower-case token text, so a keyword written in capitals lexes
// without allocating. Any other word goes through strings.ToLower, which
// allocates only when the word has an upper-case letter.
var keywords = map[string]string{
	"ANALYZE": "analyze", "AND": "and", "AS": "as", "ASC": "asc",
	"BETWEEN": "between", "BY": "by", "CREATE": "create", "DELETE": "delete",
	"DESC": "desc", "EXPLAIN": "explain", "FOR": "for", "FROM": "from",
	"GROUP": "group", "INDEX": "index", "INSERT": "insert", "INTO": "into",
	"JOIN": "join", "KEY": "key", "LIMIT": "limit", "NOT": "not",
	"NULL": "null", "ON": "on", "ORDER": "order", "PRIMARY": "primary",
	"SELECT": "select", "SET": "set", "TABLE": "table", "UNIQUE": "unique",
	"UPDATE": "update", "USING": "using", "VALUES": "values", "WHERE": "where",
	"HASH": "hash", "BTREE": "btree",
	"COUNT": "count", "SUM": "sum", "AVG": "avg", "MIN": "min", "MAX": "max",
	"INT": "int", "BIGINT": "bigint", "INTEGER": "integer", "FLOAT": "float",
	"DOUBLE": "double", "DECIMAL": "decimal", "VARCHAR": "varchar", "TEXT": "text",
}

// lex tokenizes one SQL statement into toks, whose contents it replaces.
// A token's text is a substring of input or a constant, except a string
// literal's with a doubled quote, which is its unescaped copy. A caller
// that keeps a literal past input's life clones it (the parser does).
func lex(toks []token, input string) ([]token, error) {
	// Sized once: even a bare value list ("$1,$2,…") spends two bytes a
	// token, so SQL as the workloads write it never regrows this.
	if n := len(input)/2 + 2; cap(toks) < n {
		toks = make([]token, 0, n)
	}
	toks = toks[:0]
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
			word, ok := keywords[input[start:i]]
			if !ok {
				word = strings.ToLower(input[start:i])
			}
			toks = append(toks, token{tokIdent, word, start})
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
			start := i
			escaped := false
			for i++; ; i++ {
				if i >= len(input) {
					return nil, fmt.Errorf("sql: unterminated string literal")
				}
				if input[i] == '\'' {
					if i+1 < len(input) && input[i+1] == '\'' { // escaped quote
						escaped = true
						i++
						continue
					}
					break
				}
			}
			i++
			text := input[start+1 : i-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{tokString, text, start})
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
			toks = append(toks, token{tokSymbol, input[i : i+1], i})
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

// Templater turns statement texts into their templates. It keeps its token
// array and the template it last built for its next call, so a template
// costs no allocation but a literal with a doubled quote; like every other
// scratch holder it belongs to one goroutine.
type Templater struct {
	toks []token
	tmpl []byte
}

// Template lexes input once and returns its template: input with each
// string literal replaced by the next $n after maxParam, the highest $n
// input names. It appends the literals' values in order to vals and returns
// the result, so the template bound to its caller's maxParam values
// followed by the literals is the statement input is. The rewrite is sound
// because the parser consumes a string token only where it consumes a $n
// (term), and it covers strings alone because numbers also stand where no
// $n may (LIMIT 1). A literal without a doubled quote is a substring of
// input, so a row that stores it keeps input alive; one with a doubled
// quote is its unescaped copy. A text without string literals, or one
// naming a $n too large to number its literals after, is its own template:
// tmpl is nil and vals comes back as it went in. Otherwise tmpl is held in
// tp's scratch and valid until tp's next call. A lex error is the one
// Parse(input) reports.
func (tp *Templater) Template(input string, vals []storage.Value) (tmpl []byte, _ []storage.Value, maxParam int, err error) {
	toks, err := lex(tp.toks, input)
	if err != nil {
		return nil, vals, 0, err
	}
	tp.toks = toks
	strs := 0
	for _, t := range toks {
		switch t.kind {
		case tokString:
			strs++
		case tokParam:
			n, err := strconv.Atoi(t.text)
			if err != nil {
				return nil, vals, 0, nil
			}
			maxParam = max(maxParam, n)
		}
	}
	if strs == 0 || maxParam > math.MaxInt-strs {
		return nil, vals, maxParam, nil
	}
	b := tp.tmpl[:0]
	last, n := 0, maxParam
	for _, t := range toks {
		if t.kind != tokString {
			continue
		}
		n++
		b = append(b, input[last:t.pos]...)
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(n), 10)
		// The literal's source is its value quoted, each quote doubled.
		last = t.pos + len(t.text) + strings.Count(t.text, "'") + 2
		// A digit right after the literal would lex as part of the $n.
		if last < len(input) && unicode.IsDigit(rune(input[last])) {
			b = append(b, ' ')
		}
		vals = append(vals, storage.NewString(t.text))
	}
	b = append(b, input[last:]...)
	tp.tmpl = b
	return b, vals, maxParam, nil
}
