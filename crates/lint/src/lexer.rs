//! Source preparation and tokenisation for the seed check.
//!
//! The scanner never parses Rust properly — it strips comments, string
//! and char literals out of the source (preserving byte positions, so
//! line numbers survive), remembers the comment text per line (the
//! `lint:seeded` annotation lives in comments), and cuts the rest into a
//! flat token stream of identifiers, numbers and punctuation. That is
//! enough to recognise seeding calls, attribute groups and `#[cfg(test)]`
//! item spans without a dependency on a real parser (the workspace builds
//! offline, so the lint is dependency-free by construction).

/// A source file after comment/literal stripping.
pub struct Prepared {
    /// The source with every comment, string literal and char literal
    /// replaced by spaces. Newlines are kept, so byte offset → line
    /// mapping is unchanged from the original text.
    pub clean: String,
    /// Comment text per 1-based line: all comments that *start* on that
    /// line, concatenated. Doc comments count — a justification may live
    /// in either form.
    pub comments: Vec<String>,
}

impl Prepared {
    /// Comment text on 1-based `line` (empty if none).
    pub fn comment_on(&self, line: u32) -> &str {
        self.comments
            .get(line as usize)
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Strip comments and string/char literals, keeping line structure.
pub fn prepare(source: &str) -> Prepared {
    let bytes = source.as_bytes();
    let n_lines = source.lines().count() + 2;
    let mut comments = vec![String::new(); n_lines];
    let mut clean = String::with_capacity(source.len());
    let mut line: u32 = 1;
    let mut i = 0usize;

    // Push `c` through to the cleaned text, tracking lines.
    macro_rules! keep {
        ($c:expr) => {{
            clean.push($c);
            if $c == '\n' {
                line += 1;
            }
        }};
    }
    // Blank one source char: newlines survive, everything else spaces.
    macro_rules! blank {
        ($c:expr) => {{
            if $c == '\n' {
                clean.push('\n');
                line += 1;
            } else {
                clean.push(' ');
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).map(|&b| b as char);
        match c {
            '/' if next == Some('/') => {
                // Line comment (incl. /// and //!): record its text.
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    blank!(bytes[i] as char);
                    i += 1;
                }
                let text = &source[start..i];
                let slot = &mut comments[line as usize];
                if !slot.is_empty() {
                    slot.push(' ');
                }
                slot.push_str(text);
            }
            '/' if next == Some('*') => {
                // Block comment — nestable in Rust.
                let start = i;
                let start_line = line;
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        blank!('/');
                        blank!('*');
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        blank!('*');
                        blank!('/');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        blank!(bytes[i] as char);
                        i += 1;
                    }
                }
                let slot = &mut comments[start_line as usize];
                if !slot.is_empty() {
                    slot.push(' ');
                }
                slot.push_str(&source[start..i]);
            }
            '"' => {
                i = skip_string(bytes, i, &mut |c| blank!(c));
            }
            'r' | 'b' if is_raw_or_byte_string(bytes, i) => {
                i = skip_prefixed_string(bytes, i, &mut |c| blank!(c));
            }
            '\'' => {
                // Char literal vs lifetime: a literal is '\...' or 'X'
                // (any single char followed by a closing quote); anything
                // else — 'ident — is a lifetime and stays in the stream.
                let is_char_literal = match next {
                    Some('\\') => true,
                    Some(_) => bytes.get(i + 2) == Some(&b'\''),
                    None => false,
                };
                if is_char_literal {
                    blank!('\'');
                    i += 1;
                    if bytes.get(i) == Some(&b'\\') {
                        // Escaped: blank to the closing quote.
                        while i < bytes.len() && bytes[i] != b'\'' {
                            blank!(bytes[i] as char);
                            i += 1;
                        }
                    } else {
                        blank!(bytes[i] as char);
                        i += 1;
                    }
                    if i < bytes.len() {
                        blank!('\'');
                        i += 1;
                    }
                } else {
                    keep!('\'');
                    i += 1;
                }
            }
            _ => {
                keep!(c);
                i += c.len_utf8();
            }
        }
    }
    Prepared { clean, comments }
}

/// Is `bytes[i]` the start of a raw string (`r"`, `r#"`), byte string
/// (`b"`), or raw byte string (`br#"`)?
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let rest = &bytes[i..];
    match rest {
        [b'r', b'"', ..] | [b'b', b'"', ..] => true,
        [b'r', b'#', ..] => {
            // r##..#" — hashes then a quote.
            let mut j = 1;
            while rest.get(j) == Some(&b'#') {
                j += 1;
            }
            rest.get(j) == Some(&b'"')
        }
        [b'b', b'r', ..] => {
            let mut j = 2;
            while rest.get(j) == Some(&b'#') {
                j += 1;
            }
            rest.get(j) == Some(&b'"')
        }
        _ => false,
    }
}

/// Skip a plain `"..."` string starting at `i`, blanking its contents.
/// Returns the index just past the closing quote.
fn skip_string(bytes: &[u8], mut i: usize, blank: &mut impl FnMut(char)) -> usize {
    blank('"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                blank('\\');
                if let Some(&e) = bytes.get(i + 1) {
                    blank(e as char);
                }
                i += 2;
            }
            b'"' => {
                blank('"');
                return i + 1;
            }
            c => {
                blank(c as char);
                i += 1;
            }
        }
    }
    i
}

/// Skip a raw/byte/raw-byte string starting at `i` (`r"`, `b"`, `r#"`,
/// `br##"` …), blanking its contents. The prefix chars are kept blanked
/// too.
fn skip_prefixed_string(bytes: &[u8], mut i: usize, blank: &mut impl FnMut(char)) -> usize {
    let mut raw = false;
    while i < bytes.len() && (bytes[i] == b'r' || bytes[i] == b'b') {
        raw |= bytes[i] == b'r';
        blank(bytes[i] as char);
        i += 1;
    }
    let mut hashes = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        blank('#');
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'"' {
        blank('"');
        i += 1;
    }
    while i < bytes.len() {
        if bytes[i] == b'\\' && !raw {
            blank('\\');
            if let Some(&e) = bytes.get(i + 1) {
                blank(e as char);
            }
            i += 2;
            continue;
        }
        if bytes[i] == b'"' {
            // Closing quote must be followed by `hashes` hash marks.
            let mut j = i + 1;
            let mut h = 0usize;
            while h < hashes && bytes.get(j) == Some(&b'#') {
                h += 1;
                j += 1;
            }
            if h == hashes {
                blank('"');
                for _ in 0..hashes {
                    blank('#');
                }
                return j;
            }
        }
        blank(bytes[i] as char);
        i += 1;
    }
    i
}

/// One lexed token: an identifier/number word or a single punctuation
/// character, with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: u32,
    pub is_word: bool,
}

/// Tokenise cleaned source: identifier/number words and punctuation.
/// Whitespace is dropped; every remaining byte becomes a token.
pub fn tokenize(clean: &str) -> Vec<Token> {
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut chars = clean.char_indices().peekable();
    while let Some((_, c)) = chars.next() {
        if c == '\n' {
            line += 1;
            continue;
        }
        if c.is_whitespace() {
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let mut word = String::new();
            word.push(c);
            while let Some(&(_, d)) = chars.peek() {
                if d.is_alphanumeric() || d == '_' {
                    word.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(Token {
                text: word,
                line,
                is_word: true,
            });
        } else {
            toks.push(Token {
                text: c.to_string(),
                line,
                is_word: false,
            });
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked_but_lines_survive() {
        let src = "let a = \"Instant::now()\"; // trailing HashMap note\nlet b = 2;\n";
        let p = prepare(src);
        assert!(!p.clean.contains("Instant"));
        assert!(!p.clean.contains("HashMap"));
        assert_eq!(p.clean.lines().count(), src.lines().count());
        assert!(p.comment_on(1).contains("HashMap note"));
        assert_eq!(p.comment_on(2), "");
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let src = "let s = r#\"quote \" inside\"#; let c = '\\n'; let l: &'static str = x;\n";
        let p = prepare(src);
        assert!(!p.clean.contains("inside"));
        assert!(p.clean.contains("'static"), "lifetimes survive");
        let toks = tokenize(&p.clean);
        assert!(toks.iter().any(|t| t.text == "static"));
    }

    #[test]
    fn block_comments_nest_and_record_text() {
        let src = "a /* outer /* inner */ still comment */ b\n";
        let p = prepare(src);
        let toks = tokenize(&p.clean);
        let words: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, vec!["a", "b"]);
        assert!(p.comment_on(1).contains("inner"));
    }

    #[test]
    fn tokens_carry_lines() {
        let src = "foo\nbar.baz()\n";
        let toks = tokenize(&prepare(src).clean);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].text, "bar");
        assert!(toks.iter().any(|t| t.text == "." && t.line == 2));
    }
}
