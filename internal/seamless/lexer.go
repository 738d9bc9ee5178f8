package seamless

import (
	"strings"
)

// Lex tokenizes source text, synthesizing INDENT/DEDENT tokens from leading
// whitespace in the Python manner. Tabs count as 8 columns. Blank lines and
// comment-only lines produce no tokens.
func Lex(src string) ([]Token, error) { return lexAppend(nil, src) }

// lexAppend is Lex appending to toks: ParseExpr lends it a stack buffer, so
// a one-line expression is tokenized without a heap-allocated token slice.
func lexAppend(toks []Token, src string) ([]Token, error) {
	indents := []int{0}
	lines := strings.Split(src, "\n")
	parenDepth := 0

	for ln := 0; ln < len(lines); ln++ {
		line := lines[ln]
		lineNo := ln + 1
		// Strip comments (no string literals in the language).
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		// Measure indentation (unless inside brackets — implicit joining).
		col := 0
		i := 0
		for i < len(line) {
			if line[i] == ' ' {
				col++
			} else if line[i] == '\t' {
				col += 8 - col%8
			} else {
				break
			}
			i++
		}
		if parenDepth == 0 {
			cur := indents[len(indents)-1]
			if col > cur {
				indents = append(indents, col)
				toks = append(toks, Token{Kind: TokIndent, Line: lineNo, Col: 1})
			}
			for col < indents[len(indents)-1] {
				indents = indents[:len(indents)-1]
				toks = append(toks, Token{Kind: TokDedent, Line: lineNo, Col: 1})
			}
			if col != indents[len(indents)-1] {
				return nil, errAt(lineNo, 1, "inconsistent indentation")
			}
		}
		// Tokenize the rest of the line.
		for i < len(line) {
			c := line[i]
			colNo := i + 1
			switch {
			case c == ' ' || c == '\t':
				i++
			case isDigit(c) || (c == '.' && i+1 < len(line) && isDigit(line[i+1])):
				j := i
				isFloat := false
				for j < len(line) && (isDigit(line[j]) || line[j] == '.' || line[j] == 'e' || line[j] == 'E' ||
					((line[j] == '+' || line[j] == '-') && j > i && (line[j-1] == 'e' || line[j-1] == 'E'))) {
					if line[j] == '.' || line[j] == 'e' || line[j] == 'E' {
						isFloat = true
					}
					j++
				}
				kind := TokInt
				if isFloat {
					kind = TokFloat
				}
				toks = append(toks, Token{Kind: kind, Text: line[i:j], Line: lineNo, Col: colNo})
				i = j
			case isNameStart(c):
				j := i
				for j < len(line) && isNameChar(line[j]) {
					j++
				}
				text := line[i:j]
				kind := TokName
				if keywords[text] {
					kind = TokKeyword
				}
				toks = append(toks, Token{Kind: kind, Text: text, Line: lineNo, Col: colNo})
				i = j
			default:
				op, n := matchOp(line[i:])
				if n == 0 {
					return nil, errAt(lineNo, colNo, "unexpected character %q", string(c))
				}
				switch op {
				case "(", "[":
					parenDepth++
				case ")", "]":
					if parenDepth > 0 {
						parenDepth--
					}
				}
				toks = append(toks, Token{Kind: TokOp, Text: op, Line: lineNo, Col: colNo})
				i += n
			}
		}
		if parenDepth == 0 {
			toks = append(toks, Token{Kind: TokNewline, Line: lineNo, Col: len(line) + 1})
		}
	}
	// Close any open indentation.
	last := len(lines)
	for len(indents) > 1 {
		indents = indents[:len(indents)-1]
		toks = append(toks, Token{Kind: TokDedent, Line: last, Col: 1})
	}
	toks = append(toks, Token{Kind: TokEOF, Line: last, Col: 1})
	return toks, nil
}

// multi-character operators first, longest match wins.
var ops = []string{
	"**", "//", "->", "<=", ">=", "==", "!=",
	"+=", "-=", "*=", "/=", "%=",
	"+", "-", "*", "/", "%", "<", ">", "=",
	"(", ")", "[", "]", ",", ":",
}

func matchOp(s string) (string, int) {
	for _, op := range ops {
		if strings.HasPrefix(s, op) {
			return op, len(op)
		}
	}
	return "", 0
}

func isDigit(c byte) bool     { return c >= '0' && c <= '9' }
func isNameStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isNameChar(c byte) bool  { return isNameStart(c) || isDigit(c) }
