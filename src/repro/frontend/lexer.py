"""Hand-written lexer for MiniC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import LexError

KEYWORDS = {
    "func", "array", "var", "if", "else", "for", "parallel_for", "while",
    "spawn", "sync", "return",
}

TWO_CHAR = {"==", "!=", "<=", ">=", "<<", ">>", "&&", "||", "+=", "->"}
ONE_CHAR = set("+-*/%<>=!&|^(){}[],;:~")


@dataclass
class Token:
    kind: str  # 'ident', 'int', 'float', 'kw', 'punct', 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Lex a full MiniC program into a token list ending with ``eof``."""
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            i += 2
            col += 2
            while i + 1 < n and not (source[i] == "*"
                                     and source[i + 1] == "/"):
                if source[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i + 1 >= n:
                raise LexError("unterminated block comment", line, col)
            i += 2
            col += 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n
                            and source[i + 1].isdigit()):
            start = i
            start_col = col
            has_dot = False
            has_exp = False
            while i < n:
                c = source[i]
                if c.isdigit():
                    pass
                elif c == "." and not has_dot and not has_exp:
                    has_dot = True
                elif c in "eE" and not has_exp and i > start:
                    has_exp = True
                    if i + 1 < n and source[i + 1] in "+-":
                        i += 1
                        col += 1
                else:
                    break
                i += 1
                col += 1
            text = source[start:i]
            kind = "float" if (has_dot or has_exp) else "int"
            tokens.append(Token(kind, text, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            text = source[start:i]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, start_col))
            continue
        two = source[i:i + 2]
        if two in TWO_CHAR:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in ONE_CHAR:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
