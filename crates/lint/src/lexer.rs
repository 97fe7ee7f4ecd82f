//! A hand-rolled Rust lexer, just deep enough for lexical lint rules.
//!
//! The rules in [`crate::rules`] reason about *significant tokens* —
//! identifiers, punctuation, literals — so the lexer's whole job is to
//! classify everything else out of the way without being fooled by the
//! places Rust source can smuggle code-looking text:
//!
//! * line comments and **nested** block comments (`/* /* */ */`);
//! * string literals with escapes (`"say \"hi\""`), byte strings, and
//!   **raw strings with arbitrary hash fences** (`r##"…"##`) whose
//!   contents may contain `unwrap(`, quotes, backslashes, anything;
//! * char literals (`'"'`, `'\\'`, `'\u{1f}'`) versus lifetimes
//!   (`'static`, `<'a>`) versus loop labels (`'outer:`);
//! * raw identifiers (`r#match`) versus raw strings (`r#"…"#`);
//! * numbers with radix prefixes, type suffixes, and the `0..n` range
//!   ambiguity (the `.` belongs to the range, not the number).
//!
//! Comments are not discarded: they come back as trivia so the
//! suppression layer can find `lint:allow(...)` markers, and the
//! `#[cfg(test)]` scanner marks every token inside test-only modules so
//! rules can skip them.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unwrap`, `self`, …). Raw
    /// identifiers (`r#match`) lex to their unprefixed name.
    Ident,
    /// A lifetime or loop label (`'a`, `'static`), without the quote.
    Lifetime,
    /// A numeric literal, radix prefix and suffix included (`0xDC00`,
    /// `1_000u32`).
    Num,
    /// A string literal (plain, byte, raw or raw-byte); `text` holds the
    /// raw contents between the quotes, escapes unprocessed.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A single punctuation byte (`.`, `{`, `!`, …). Multi-byte operators
    /// arrive as consecutive tokens (`::` is two `:`).
    Punct,
}

/// One significant token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what each kind stores).
    pub text: String,
    /// 1-based source line of the token's first byte.
    pub line: u32,
    /// 1-based byte column of the token's first byte on its line (the
    /// span plumbing `--format github` annotations and the item parser
    /// anchor on).
    pub col: u32,
    /// Whether the token sits inside a `#[cfg(test)]`-gated brace block.
    pub in_test: bool,
}

impl Tok {
    /// Is this the punctuation byte `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Is this the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// One comment, kept for the suppression layer.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// `true` when nothing but whitespace precedes the comment on its
    /// line — such a comment annotates the *next* code line, a trailing
    /// one annotates its own.
    pub own_line: bool,
}

/// A lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    /// Byte index of the first byte of the current line, for columns.
    line_start: usize,
    /// Whether a significant token has been emitted on the current line
    /// (distinguishes own-line comments from trailing ones).
    line_has_code: bool,
    out: Lexed,
}

impl Lexer<'_> {
    fn peek(&self, off: usize) -> u8 {
        self.b.get(self.i + off).copied().unwrap_or(0)
    }

    /// 1-based column of the current byte on the current line.
    fn col(&self) -> u32 {
        u32::try_from(self.i.saturating_sub(self.line_start))
            .unwrap_or(u32::MAX - 1)
            .saturating_add(1)
    }

    fn push(&mut self, kind: TokKind, text: String, at: (u32, u32)) {
        self.line_has_code = true;
        self.out.toks.push(Tok {
            kind,
            text,
            line: at.0,
            col: at.1,
            in_test: false,
        });
    }

    /// Advances past one byte, counting newlines.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.line_start = self.i + 1;
            self.line_has_code = false;
        }
        self.i += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => {
                    let at = (self.line, self.col());
                    // Non-ASCII bytes only occur inside strings/comments in
                    // valid Rust; emit whatever shows up here as opaque
                    // punctuation so offsets stay aligned.
                    let len = utf8_len(c);
                    let text = String::from_utf8_lossy(&self.b[self.i..self.i + len]).into_owned();
                    self.bump_n(len);
                    self.push(TokKind::Punct, text, at);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let own_line = !self.line_has_code;
        let start = self.i + 2;
        while self.i < self.b.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.out.comments.push(Comment {
            line,
            text,
            own_line,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let own_line = !self.line_has_code;
        let start = self.i + 2;
        self.bump_n(2);
        let mut depth = 1usize;
        let mut end = self.b.len().saturating_sub(2);
        while self.i < self.b.len() {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump_n(2);
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                if depth == 0 {
                    end = self.i;
                    self.bump_n(2);
                    break;
                }
                self.bump_n(2);
            } else {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..end.max(start)]).into_owned();
        self.out.comments.push(Comment {
            line,
            text,
            own_line,
        });
    }

    /// A plain (escaped) string literal, opening quote at `self.i`.
    fn string(&mut self) {
        let at = (self.line, self.col());
        self.bump(); // opening quote
        let start = self.i;
        while self.i < self.b.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => break,
                _ => self.bump(),
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i.min(self.b.len())]).into_owned();
        if self.i < self.b.len() {
            self.bump(); // closing quote
        }
        self.push(TokKind::Str, text, at);
    }

    /// A raw string body: `self.i` sits on the opening quote, `hashes`
    /// fence characters follow the closing quote.
    fn raw_string(&mut self, hashes: usize) {
        let at = (self.line, self.col());
        self.bump(); // opening quote
        let start = self.i;
        let mut end = self.b.len();
        while self.i < self.b.len() {
            if self.peek(0) == b'"' && (1..=hashes).all(|k| self.peek(k) == b'#') {
                end = self.i;
                self.bump_n(1 + hashes);
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.b[start..end.max(start)]).into_owned();
        self.push(TokKind::Str, text, at);
    }

    /// `'` — a char literal, a lifetime, or a loop label.
    fn char_or_lifetime(&mut self) {
        let at = (self.line, self.col());
        let next = self.peek(1);
        if next == b'\\' {
            // Escaped char literal: skip the escape, find the close.
            self.bump_n(2); // ' and backslash
            self.bump(); // the escape selector (n, t, u, ', \, …)
            while self.i < self.b.len() && self.peek(0) != b'\'' {
                self.bump(); // \u{…} payloads
            }
            self.bump(); // closing quote
            self.push(TokKind::Char, String::new(), at);
        } else if is_ident_start(next) && self.peek(2) != b'\'' {
            // Lifetime or label: 'ident with no closing quote.
            self.bump(); // quote
            let start = self.i;
            while is_ident_byte(self.peek(0)) {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
            self.push(TokKind::Lifetime, text, at);
        } else {
            // Char literal, possibly multi-byte ('λ'): scan to the close.
            self.bump(); // quote
            while self.i < self.b.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump(); // closing quote
            self.push(TokKind::Char, String::new(), at);
        }
    }

    fn number(&mut self) {
        let at = (self.line, self.col());
        let start = self.i;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.bump_n(2);
            while is_ident_byte(self.peek(0)) {
                self.bump();
            }
        } else {
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
            // A fractional part only if a digit follows the dot — `0..n`
            // leaves both dots to the range operator.
            if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
                self.bump();
                while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                    self.bump();
                }
            }
            if matches!(self.peek(0), b'e' | b'E') && {
                let s = if matches!(self.peek(1), b'+' | b'-') {
                    2
                } else {
                    1
                };
                self.peek(s).is_ascii_digit()
            } {
                self.bump();
                if matches!(self.peek(0), b'+' | b'-') {
                    self.bump();
                }
                while self.peek(0).is_ascii_digit() {
                    self.bump();
                }
            }
            // Type suffix (u32, f64, usize).
            while is_ident_byte(self.peek(0)) {
                self.bump();
            }
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.push(TokKind::Num, text, at);
    }

    fn ident_or_prefixed_literal(&mut self) {
        let at = (self.line, self.col());
        let start = self.i;
        while is_ident_byte(self.peek(0)) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        // String-literal prefixes: r"…", r#"…"#, b"…", br#"…"#, b'…'.
        match text.as_str() {
            "r" | "br" | "rb" => {
                let mut hashes = 0usize;
                while self.peek(hashes) == b'#' {
                    hashes += 1;
                }
                if self.peek(hashes) == b'"' {
                    self.bump_n(hashes);
                    self.raw_string(hashes);
                    return;
                }
                if text == "r" && hashes > 0 && is_ident_start(self.peek(hashes)) {
                    // Raw identifier r#match: re-lex the name.
                    self.bump_n(hashes);
                    let nstart = self.i;
                    while is_ident_byte(self.peek(0)) {
                        self.bump();
                    }
                    let name = String::from_utf8_lossy(&self.b[nstart..self.i]).into_owned();
                    self.push(TokKind::Ident, name, at);
                    return;
                }
            }
            "b" => {
                if self.peek(0) == b'"' {
                    self.string();
                    return;
                }
                // b'…' byte literal: let the char lexer eat it.
                if self.peek(0) == b'\'' {
                    self.char_or_lifetime();
                    return;
                }
            }
            _ => {}
        }
        self.push(TokKind::Ident, text, at);
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Lexes `src`, then marks tokens inside `#[cfg(test)]`-gated brace
/// blocks so rules can skip test-only code.
pub fn lex(src: &str) -> Lexed {
    let mut lexed = Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        line_start: 0,
        line_has_code: false,
        out: Lexed::default(),
    }
    .run();
    mark_test_spans(&mut lexed.toks);
    lexed
}

/// Finds the matching `}` for the `{` at `open`, by token index.
pub fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Keywords that start an item once attributes and a visibility are
/// skipped.
const ITEM_KEYWORDS: [&str; 15] = [
    "async",
    "const",
    "enum",
    "extern",
    "fn",
    "impl",
    "macro_rules",
    "mod",
    "static",
    "struct",
    "trait",
    "type",
    "union",
    "unsafe",
    "use",
];

fn is_open(t: &Tok) -> bool {
    t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
}

fn is_close(t: &Tok) -> bool {
    t.is_punct(')') || t.is_punct(']') || t.is_punct('}')
}

/// The bracket that closes the group `toks[open]` opens, counting all
/// three bracket kinds.
fn group_end(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Marks every token a `#[cfg(test)]` gates, from the attribute on. Past
/// any further attributes and a visibility, an item (an item keyword, or
/// a block) ends at its first `;` or at the `}` matching its first `{`,
/// outside parentheses and brackets. Anything else is a field, variant,
/// match arm, struct-literal member or statement: see [`element_end`].
fn mark_test_spans(toks: &mut [Tok]) {
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut start = i + 7;
        let after_group = |open: usize| group_end(toks, open).map_or(toks.len(), |e| e + 1);
        while toks.get(start).is_some_and(|t| t.is_punct('#'))
            && toks.get(start + 1).is_some_and(|t| t.is_punct('['))
        {
            start = after_group(start + 1);
        }
        if toks.get(start).is_some_and(|t| t.is_ident("pub")) {
            start += 1;
            if toks.get(start).is_some_and(|t| t.is_punct('(')) {
                start = after_group(start);
            }
        }
        let end = match toks.get(start) {
            Some(t) if t.is_punct('{') || ITEM_KEYWORDS.iter().any(|k| t.is_ident(k)) => {
                item_end(toks, start)
            }
            Some(_) => element_end(toks, start),
            None => None,
        };
        let Some(end) = end else {
            i = start;
            continue;
        };
        for t in &mut toks[i..=end] {
            t.in_test = true;
        }
        i = end + 1;
    }
}

/// The last token of the item starting at `start`: its first `;`, or the
/// `}` matching its first `{`, outside parentheses and brackets (so an
/// array type's `;` does not end a signature).
fn item_end(toks: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(start) {
        if depth == 0 && t.is_punct('{') {
            return group_end(toks, j);
        } else if depth == 0 && t.is_punct(';') {
            return Some(j);
        } else if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth = depth.checked_sub(1)?;
        }
    }
    None
}

/// The last token of a gated element that is not an item: a field,
/// variant, match arm, struct-literal member or statement. At bracket
/// depth 0 it ends at its own `,` or `;`, or at the `}` closing a block
/// it opened unless `else` follows (a match arm's block body takes no
/// comma); otherwise it ends just before the bracket that closes the
/// list around it. A comma in a field's generic arguments
/// (`HashMap<K, V>`) ends it early, which leaves the rest of the type to
/// the rules rather than hiding live code.
fn element_end(toks: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(start) {
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            let Some(inner) = depth.checked_sub(1) else {
                return j.checked_sub(1);
            };
            depth = inner;
            let else_follows = toks.get(j + 1).is_some_and(|n| n.is_ident("else"));
            if depth == 0 && t.is_punct('}') && !else_follows {
                return Some(j);
            }
        } else if depth == 0 && (t.is_punct(',') || t.is_punct(';')) {
            return Some(j);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let lexed = lex(r###"let s = r#"foo.unwrap() "quoted" \"#; s.len()"###);
        let strs: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, r#"foo.unwrap() "quoted" \"#);
        // `unwrap` never appears as an identifier.
        assert!(!idents(r###"r#"x.unwrap()"#"###).contains(&"unwrap".to_string()));
    }

    #[test]
    fn comments_are_trivia_not_code() {
        let lexed =
            lex("let a = 1; // b.unwrap()\n/* c.unwrap() /* nested */ still comment */ let d = 2;");
        assert!(!lexed.toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed.comments[0].own_line);
        assert!(lexed.comments[1].text.contains("nested"));
        assert!(lexed.toks.iter().any(|t| t.is_ident("d")));
    }

    #[test]
    fn chars_lifetimes_and_labels_disambiguate() {
        let lexed = lex(
            r#"let c = '"'; let e = '\\'; let u = '\u{1f}'; fn f<'a>(x: &'a str) {} 'outer: loop { break 'outer; }"#,
        );
        let chars = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, 3);
        assert_eq!(lifetimes, ["a", "a", "outer", "outer"]);
        // The string "…" after &'a lexes as a type ident, quotes intact.
        assert!(lexed.toks.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn byte_literals_do_not_open_strings() {
        // json.rs shape: a byte literal containing a double quote must not
        // swallow the rest of the file as a string.
        let lexed = lex(r#"match c { b'"' => x.push(1), b'\\' => y, _ => z }"#);
        assert!(lexed.toks.iter().any(|t| t.is_ident("push")));
        assert!(lexed.toks.iter().any(|t| t.is_ident("z")));
    }

    #[test]
    fn numbers_and_ranges() {
        let lexed = lex("for v in 0..space.card(a) as u16 { let h = 0xDC00; let f = 2.5e-3; }");
        let nums: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "0xDC00", "2.5e-3"]);
        assert!(lexed.toks.iter().any(|t| t.is_ident("u16")));
    }

    #[test]
    fn cfg_test_spans_are_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn live2() {}";
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .toks
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, [false, true]);
        let live2 = lexed.toks.iter().find(|t| t.is_ident("live2")).unwrap();
        assert!(!live2.in_test);
        // A gated element that is not an item ends at its own `,` or `;`
        // (a match arm's block at its `}`): exactly the tokens on the
        // listed lines are test code, and the live code after stays live.
        let cases: [(&str, &str, &[u32]); 7] = [
            (
                "struct field",
                "struct S {\n#[cfg(test)]\ngated: usize,\nlive: usize,\n}\nimpl S { fn f(&self) { self.live.unwrap(); } }",
                &[2, 3],
            ),
            (
                "pub(crate) struct field",
                "struct S {\n#[cfg(test)]\npub(crate) gated: Vec<(u8, u8)>,\nlive: usize,\n}\nimpl S { fn f(&self) { self.live.unwrap(); } }",
                &[2, 3],
            ),
            (
                "enum variant",
                "enum Work {\n#[cfg(test)]\nCall(Box<dyn FnOnce() -> u8>),\nReady(u8),\n}\nstruct Job { work: Work }",
                &[2, 3],
            ),
            (
                "struct-literal member",
                "let s = S {\n#[cfg(test)]\ngated: 0,\nlive: x.unwrap(),\n};",
                &[2, 3],
            ),
            (
                "last struct-literal member",
                "let s = S {\nlive: 1,\n#[cfg(test)]\ngated: 0\n};\nx.unwrap();",
                &[3, 4],
            ),
            (
                "match arm",
                "match w {\n#[cfg(test)]\nWork::Call(f) => { f() }\nWork::Ready(v) => v.unwrap(),\n}",
                &[2, 3],
            ),
            (
                "statement",
                "fn f() {\n#[cfg(test)]\nself.skips += 1;\nx.unwrap();\n}",
                &[2, 3],
            ),
        ];
        for (what, src, gated) in cases {
            for t in lex(src).toks {
                let want = gated.contains(&t.line);
                assert_eq!(t.in_test, want, "{what}: `{}` on line {}", t.text, t.line);
            }
        }
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let lexed = lex("let r#match = 1; let s = r\"raw\";");
        assert!(lexed.toks.iter().any(|t| t.is_ident("match")));
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "raw"));
    }
}
