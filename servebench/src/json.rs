//! The slice of JSON the benchmark needs: string escaping for the
//! request lines it renders, and a non-allocating reader that validates
//! one reply line and pulls out the scalar fields the checks compare.

/// FNV-1a offset basis: the start value of every hash the benchmark
/// prints or compares.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `s` as a JSON string literal to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The facts one reply carries, as far as the checks need them. Every
/// field is `None` when the reply does not carry it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    /// The echoed request id.
    pub id: Option<u64>,
    /// The top-level `ok` flag.
    pub ok: Option<bool>,
    /// `result.fingerprint` (open, edit and status replies).
    pub fingerprint: Option<u64>,
    /// `result.violations` (open, edit and status replies).
    pub violations: Option<u64>,
    /// `result.journal` (open, edit and status replies).
    pub journal: Option<u64>,
    /// `result.undone` (rollback replies).
    pub undone: Option<u64>,
    /// `result.repaired` (repair replies).
    pub repaired: Option<bool>,
    /// `result.cost` (repair replies).
    pub cost: Option<u64>,
    /// `result.entries` (journal replies).
    pub entries: Option<u64>,
    /// `result.script` (journal replies) as the [`fnv1a`] hash of its
    /// decoded strings, each followed by a newline: the hash of the
    /// journal's script text, one line per model.
    pub script: Option<u64>,
}

/// Reads one reply line. Fails on anything that is not one well-formed
/// JSON object; nested values are validated and skipped unless they
/// are one of the scalars [`Reply`] holds.
pub fn read_reply(line: &[u8]) -> Result<Reply, String> {
    let mut r = Reader { b: line, pos: 0 };
    let mut out = Reply::default();
    r.ws();
    r.object(0, false, &mut out)?;
    r.ws();
    if r.pos != r.b.len() {
        return Err(format!("trailing bytes at {}", r.pos));
    }
    Ok(out)
}

/// Nesting bound: replies nest four levels (reply, result, checks,
/// violation binding).
const MAX_DEPTH: usize = 16;

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    /// Reads an object. `in_result` marks the reply's `result` object,
    /// whose scalar fields land in `out`; depth 0 is the reply itself.
    fn object(&mut self, depth: usize, in_result: bool, out: &mut Reply) -> Result<(), String> {
        if depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.eat(b'{')?;
        self.ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            self.ws();
            match (depth, in_result, key) {
                (0, _, b"id") => out.id = self.uint_or_skip(depth)?,
                (0, _, b"ok") => out.ok = Some(self.boolean()?),
                (0, _, b"result") if self.b.get(self.pos) == Some(&b'{') => {
                    self.object(depth + 1, true, out)?
                }
                (1, true, b"fingerprint") => out.fingerprint = Some(self.uint()?),
                (1, true, b"violations") => out.violations = Some(self.uint()?),
                (1, true, b"journal") => out.journal = Some(self.uint()?),
                (1, true, b"undone") => out.undone = Some(self.uint()?),
                (1, true, b"repaired") => out.repaired = Some(self.boolean()?),
                (1, true, b"cost") => out.cost = Some(self.uint()?),
                (1, true, b"entries") => out.entries = Some(self.uint()?),
                (1, true, b"script") if self.b.get(self.pos) == Some(&b'[') => {
                    out.script = Some(self.string_array_hash()?)
                }
                _ => self.skip(depth + 1)?,
            }
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// A string's raw bytes (escapes validated, not decoded).
    fn string(&mut self) -> Result<&'a [u8], String> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.b[start..self.pos - 1]);
                }
                Some(b'\\') => self.pos += 2,
                Some(c) if *c < 0x20 => return Err("control byte in string".into()),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Reads an array of strings and hashes their decoded bytes, each
    /// string followed by a newline.
    fn string_array_hash(&mut self) -> Result<u64, String> {
        let mut h = FNV_BASIS;
        self.eat(b'[')?;
        self.ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(h);
        }
        loop {
            self.ws();
            h = fnv1a(hash_unescaped(h, self.string()?)?, b"\n");
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(h);
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn uint(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(d) = self.b.get(self.pos).filter(|d| d.is_ascii_digit()) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or("integer overflow")?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected an unsigned integer at byte {start}"));
        }
        Ok(v)
    }

    fn uint_or_skip(&mut self, depth: usize) -> Result<Option<u64>, String> {
        if self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.uint().map(Some)
        } else {
            self.skip(depth + 1).map(|()| None)
        }
    }

    fn boolean(&mut self) -> Result<bool, String> {
        if self.b[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if self.b[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            Err(format!("expected a boolean at byte {}", self.pos))
        }
    }

    /// Validates and skips any value.
    fn skip(&mut self, depth: usize) -> Result<(), String> {
        if depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                let mut sink = Reply::default();
                self.object(depth, false, &mut sink)
            }
            Some(b'[') => {
                self.pos += 1;
                self.ws();
                if self.b.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip(depth + 1)?;
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(|_| ()),
            Some(b't' | b'f') => self.boolean().map(|_| ()),
            Some(b'n') if self.b[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(())
            }
            Some(b'-') => {
                self.pos += 1;
                self.uint().map(|_| ())
            }
            Some(c) if c.is_ascii_digit() => self.uint().map(|_| ()),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }
}

/// Folds the decoded bytes of a JSON string body (escapes still in
/// place, as [`Reader::string`] returns it) into the hash `h`.
fn hash_unescaped(mut h: u64, raw: &[u8]) -> Result<u64, String> {
    let mut i = 0;
    while i < raw.len() {
        if raw[i] != b'\\' {
            h = fnv1a(h, &raw[i..=i]);
            i += 1;
            continue;
        }
        let plain = match raw.get(i + 1) {
            Some(b'"') => b'"',
            Some(b'\\') => b'\\',
            Some(b'/') => b'/',
            Some(b'b') => 0x08,
            Some(b'f') => 0x0c,
            Some(b'n') => b'\n',
            Some(b'r') => b'\r',
            Some(b't') => b'\t',
            Some(b'u') => {
                let c = raw
                    .get(i + 2..i + 6)
                    .and_then(|d| std::str::from_utf8(d).ok())
                    .and_then(|d| u32::from_str_radix(d, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or("bad \\u escape")?;
                h = fnv1a(h, c.encode_utf8(&mut [0; 4]).as_bytes());
                i += 6;
                continue;
            }
            _ => return Err("bad escape".into()),
        };
        h = fnv1a(h, &[plain]);
        i += 2;
    }
    Ok(h)
}

/// Extracts a top-level string field from a request line the benchmark
/// rendered itself (no escapes other than `\"` and `\\`).
pub fn request_field<'a>(line: &'a str, key: &str) -> Option<std::borrow::Cow<'a, str>> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => {
                end = Some(i);
                break;
            }
            _ => {}
        }
    }
    let raw = &rest[..end?];
    if raw.contains('\\') {
        Some(raw.replace("\\\"", "\"").replace("\\\\", "\\").into())
    } else {
        Some(raw.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_fields_of_each_reply_shape() {
        let r = read_reply(br#"{"id":3,"ok":true,"result":{"consistent":false,"violations":2,"journal":1,"fingerprint":18446744073709551615,"checks":[{"relation":"MF","dep":"cf1 -> fm","holds":false,"violations":[{"n":"x"}]}]}}"#).unwrap();
        assert_eq!(r.id, Some(3));
        assert_eq!(r.ok, Some(true));
        assert_eq!(r.fingerprint, Some(u64::MAX));
        assert_eq!(r.violations, Some(2));
        assert_eq!(r.journal, Some(1));
        let r = read_reply(
            br#"{"id":4,"ok":true,"result":{"repaired":true,"cost":3,"deltas":["a","",""]}}"#,
        )
        .unwrap();
        assert_eq!((r.repaired, r.cost), (Some(true), Some(3)));
        let r = read_reply(
            br#"{"id":5,"ok":true,"result":{"entries":2,"script":["fm set @1.name = \"a\\b\"\n","","\u0041"]}}"#,
        )
        .unwrap();
        assert_eq!(r.entries, Some(2));
        let text = "fm set @1.name = \"a\\b\"\n\n\nA\n";
        assert_eq!(r.script, Some(fnv1a(FNV_BASIS, text.as_bytes())));
        let r = read_reply(br#"{"id":null,"ok":false,"error":"bad \"x\""}"#).unwrap();
        assert_eq!((r.id, r.ok), (None, Some(false)));
    }

    #[test]
    fn rejects_malformed_replies() {
        for bad in [
            &b""[..],
            b"{",
            b"{\"ok\":true",
            b"{\"ok\":tru}",
            b"{\"ok\":true} x",
            b"[1]",
        ] {
            assert!(
                read_reply(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn request_fields_round_trip_escapes() {
        let mut line = String::from("{\"cmd\":\"edit\",\"edit\":");
        push_str_lit(&mut line, "fm set @1.name = \"a\\b\"");
        line.push('}');
        assert_eq!(request_field(&line, "cmd").unwrap(), "edit");
        assert_eq!(
            request_field(&line, "edit").unwrap(),
            "fm set @1.name = \"a\\b\""
        );
        assert!(request_field(&line, "session").is_none());
    }
}
