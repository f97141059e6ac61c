package codec

import "bytes"

// appendIndent appends src, the compact output of json.Marshal, to dst
// indented by two spaces per level with no prefix. Its output equals
// json.Indent(dst, src, "", "  ") on such input: objects and arrays open
// a new line per element, an empty one stays "{}" or "[]", and a colon
// is followed by one space.
//
// Unlike json.Indent it does not run a validating scanner over every
// byte: src is valid by construction, and each string literal — the
// netlists make up most of a synthesis document — is copied in one
// piece once its closing quote is found.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	// open is set after '{' or '[': the line break into the new level is
	// written only when an element follows, so empty ones stay closed.
	open := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i+1)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			open = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index just past the quote closing the string
// literal whose contents start at src[from]. A quote preceded by an odd
// run of backslashes is escaped and does not close the literal.
func stringEnd(src []byte, from int) int {
	for i := from; ; {
		q := bytes.IndexByte(src[i:], '"')
		if q < 0 {
			return len(src) // unterminated: valid input never ends here
		}
		i += q
		backslashes := 0
		for j := i - 1; j >= from && src[j] == '\\'; j-- {
			backslashes++
		}
		i++
		if backslashes%2 == 0 {
			return i
		}
	}
}

// appendNewline starts a new line indented to depth levels.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
