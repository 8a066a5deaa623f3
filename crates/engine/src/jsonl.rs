//! JSON-lines corpus I/O: one instance (or report) per line.
//!
//! Instance lines look like
//!
//! ```json
//! {"id":"uniform-0","machines":3,"classes":[[4,3],[5],[2,2,2]]}
//! ```
//!
//! mirroring [`msrs_core::io`]'s text format (`classes[c]` lists the job
//! sizes of class `c`; job ids are assigned class by class in order, exactly
//! as [`Instance::from_classes`]). Blank lines and `#`-prefixed lines are
//! ignored. Report lines are produced by
//! [`SolveReport::write_json_line`](crate::report::SolveReport::write_json_line).
//!
//! ## The streaming decoder
//!
//! [`LineDecoder`] parses an instance line **directly into reusable
//! buffers** — a [`msrs_core::InstanceBuilder`] for the flat class data and
//! a string buffer for the id — without building a [`Json`] tree: after
//! warm-up, decoding a line performs zero heap allocations. It runs on the
//! same lexer as [`Json::parse`] (in [`crate::json`]), so both accept the
//! same grammar and report the same JSON errors. It validates the full line
//! (syntax *and* instance invariants) with the error classification of
//! parsing a tree and then extracting fields: JSON syntax problems win over
//! semantic ones, and semantic checks fire in field order (`machines`, then
//! `classes`, then instance construction). [`read_instance_line`] is a
//! convenience wrapper that decodes one line into an owned
//! [`SolveRequest`].

use std::fmt;

use msrs_core::{Instance, InstanceBuilder, Time};

use crate::json::{Json, JsonError, Scan};
use crate::report::SolveRequest;

/// Errors reading an instance corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// A line failed to parse as JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// Underlying JSON error.
        error: JsonError,
    },
    /// A line parsed but did not describe a valid instance.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description.
        reason: String,
    },
    /// The underlying reader failed (streaming input only).
    Io {
        /// 1-based number of the line being read when the error occurred.
        line: usize,
        /// Description of the I/O error.
        message: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Json { line, error } => write!(f, "line {line}: {error}"),
            CorpusError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            CorpusError::Io { line, message } => write!(f, "line {line}: I/O error: {message}"),
        }
    }
}

impl std::error::Error for CorpusError {}

/// Serializes one instance (with an optional id) as a JSON line.
pub fn write_instance_line(id: Option<&str>, inst: &Instance) -> String {
    let mut obj = Vec::new();
    if let Some(id) = id {
        obj.push(("id".into(), Json::Str(id.into())));
    }
    obj.push(("machines".into(), Json::Num(inst.machines() as i128)));
    let classes: Vec<Json> = (0..inst.num_classes())
        .map(|c| {
            Json::Arr(
                inst.class_sizes(c)
                    .iter()
                    .map(|&p| Json::Num(p as i128))
                    .collect(),
            )
        })
        .collect();
    obj.push(("classes".into(), Json::Arr(classes)));
    Json::Obj(obj).to_string()
}

/// The first problem found inside a line's `classes` array (reported only
/// after the whole line proved syntactically valid, the order of parsing a
/// tree first and then extracting fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Semantic {
    EntryNotArray,
    BadSize,
}

impl Semantic {
    fn reason(self) -> &'static str {
        match self {
            Semantic::EntryNotArray => "`classes` entries must be arrays",
            Semantic::BadSize => "job sizes must be non-negative integers",
        }
    }
}

/// What one line's schema fields held, gathered while its members are
/// scanned. The first occurrence of a key counts; later ones are skipped.
#[derive(Default)]
struct Fields {
    seen_id: bool,
    seen_machines: bool,
    seen_classes: bool,
    /// `Some` when the first `machines` is an integer that fits `usize`.
    machines: Option<usize>,
    /// Whether the first `classes` is an array.
    classes_ok: bool,
    semantic: Option<Semantic>,
}

/// A reusable instance-line decoder: parses
/// `{"id":…,"machines":…,"classes":[[…]]}` straight into a retained
/// [`InstanceBuilder`] and id buffer. Steady-state decoding allocates
/// nothing; only [`LineDecoder::build_request`] materializes owned data.
#[derive(Debug, Default)]
pub struct LineDecoder {
    builder: InstanceBuilder,
    id_buf: String,
    /// Reusable unescaped-key buffer: schema keys are matched on their
    /// *decoded* spelling (`"machine\u0073"` is `"machines"`), exactly as
    /// [`Json::get`] matches them.
    key_buf: String,
    has_id: bool,
}

impl LineDecoder {
    /// A fresh decoder (buffers grow on first use, then persist).
    pub fn new() -> Self {
        LineDecoder::default()
    }

    /// Decodes one instance line. On `Ok`, the [`builder`](Self::builder)
    /// holds the instance's flat class data (already checked against the
    /// [`Instance`] construction invariants) and [`id_str`](Self::id_str)
    /// the optional request id.
    pub fn decode(&mut self, line_no: usize, line: &str) -> Result<(), CorpusError> {
        self.id_buf.clear();
        self.has_id = false;
        self.builder.reset(0);
        let mut fields = Fields::default();
        let mut scan = Scan::new(line);
        scan.skip_ws();
        // Any document other than an object is handled like a tree parse:
        // it must be valid JSON, and then it has no `machines`.
        let syntax = if scan.peek() == Some(b'{') {
            scan.elements(0, |s, depth| self.member(s, depth, &mut fields))
        } else {
            scan.skip_value(0)
        };
        syntax
            .and_then(|()| scan.end())
            .map_err(|error| CorpusError::Json {
                line: line_no,
                error,
            })?;

        // Syntax was fine; now surface semantic problems in field
        // extraction order.
        let malformed = |reason: String| CorpusError::Malformed {
            line: line_no,
            reason,
        };
        let Some(machines) = fields.machines else {
            return Err(malformed("missing or invalid `machines`".into()));
        };
        if !fields.classes_ok {
            return Err(malformed("missing or invalid `classes`".into()));
        }
        if let Some(s) = fields.semantic {
            return Err(malformed(s.reason().into()));
        }
        self.builder.set_machines(machines);
        self.builder
            .validate()
            .map_err(|e| malformed(e.to_string()))
    }

    /// Reads one `key: value` member of the line's top-level object,
    /// decoding the schema fields and skipping everything else. Semantic
    /// problems are recorded, not returned, so the rest of the line is
    /// still syntax-checked.
    fn member(&mut self, s: &mut Scan<'_>, depth: usize, f: &mut Fields) -> Result<(), JsonError> {
        self.key_buf.clear();
        s.string(Some(&mut self.key_buf))?;
        s.colon()?;
        match self.key_buf.as_str() {
            "id" if !f.seen_id => {
                f.seen_id = true;
                if s.peek() == Some(b'"') {
                    s.string(Some(&mut self.id_buf))?;
                    self.has_id = true;
                    return Ok(());
                }
            }
            "machines" if !f.seen_machines => {
                f.seen_machines = true;
                if matches!(s.peek(), Some(b'-' | b'0'..=b'9')) {
                    f.machines = usize::try_from(s.number()?).ok();
                    return Ok(());
                }
            }
            "classes" if !f.seen_classes => {
                f.seen_classes = true;
                if s.peek() == Some(b'[') {
                    f.classes_ok = true;
                    let (builder, semantic) = (&mut self.builder, &mut f.semantic);
                    return s.elements(depth, |s, depth| class(builder, s, depth, semantic));
                }
            }
            _ => {}
        }
        s.skip_value(depth)
    }

    /// The decoded flat instance data of the last successful
    /// [`decode`](Self::decode).
    pub fn builder(&self) -> &InstanceBuilder {
        &self.builder
    }

    /// The decoded (unescaped) id, if the line carried a string `id`.
    pub fn id_str(&self) -> Option<&str> {
        self.has_id.then_some(self.id_buf.as_str())
    }

    /// Materializes an owned [`SolveRequest`] from the decoded line (this
    /// is where the allocations happen).
    pub fn build_request(&self) -> SolveRequest {
        SolveRequest {
            id: self.id_str().map(str::to_owned),
            instance: self.builder.build().expect("decode validated the instance"),
        }
    }
}

/// Reads one entry of `classes` into `builder`: an array of job sizes
/// opens a class, anything else is recorded as a semantic problem.
fn class(
    builder: &mut InstanceBuilder,
    s: &mut Scan<'_>,
    depth: usize,
    semantic: &mut Option<Semantic>,
) -> Result<(), JsonError> {
    if s.peek() != Some(b'[') {
        note(semantic, Semantic::EntryNotArray);
        return s.skip_value(depth);
    }
    builder.begin_class();
    s.elements(depth, |s, depth| {
        if !matches!(s.peek(), Some(b'-' | b'0'..=b'9')) {
            note(semantic, Semantic::BadSize);
            return s.skip_value(depth);
        }
        match u64::try_from(s.number()?) {
            Ok(size) => builder.push_size(size as Time),
            Err(_) => note(semantic, Semantic::BadSize),
        }
        Ok(())
    })
}

/// Records the first semantic problem of a line (later ones are masked,
/// matching first-error field extraction).
fn note(slot: &mut Option<Semantic>, what: Semantic) {
    if slot.is_none() {
        *slot = Some(what);
    }
}

/// Parses one instance line into a [`SolveRequest`].
pub fn read_instance_line(line_no: usize, line: &str) -> Result<SolveRequest, CorpusError> {
    let mut decoder = LineDecoder::new();
    decoder.decode(line_no, line)?;
    Ok(decoder.build_request())
}

/// Parses a whole JSONL corpus (blank and `#` lines skipped).
pub fn read_corpus(text: &str) -> Result<Vec<SolveRequest>, CorpusError> {
    let mut decoder = LineDecoder::new();
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        decoder.decode(i + 1, line)?;
        out.push(decoder.build_request());
    }
    Ok(out)
}

/// Serializes a whole corpus as JSONL.
pub fn write_corpus<'a>(requests: impl IntoIterator<Item = &'a SolveRequest>) -> String {
    let mut out = String::new();
    for req in requests {
        out.push_str(&write_instance_line(req.id.as_deref(), &req.instance));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-rewrite reference decoder: a [`Json`] tree plus field
    /// extraction. The streaming [`LineDecoder`] must agree with it on
    /// every line — success values and error classification alike.
    fn read_instance_line_via_tree(
        line_no: usize,
        line: &str,
    ) -> Result<SolveRequest, CorpusError> {
        let v = Json::parse(line).map_err(|error| CorpusError::Json {
            line: line_no,
            error,
        })?;
        let malformed = |reason: &str| CorpusError::Malformed {
            line: line_no,
            reason: reason.to_string(),
        };
        let id = v.get("id").and_then(|j| j.as_str()).map(str::to_owned);
        let machines = v
            .get("machines")
            .and_then(Json::as_usize)
            .ok_or_else(|| malformed("missing or invalid `machines`"))?;
        let classes_json = v
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing or invalid `classes`"))?;
        let mut classes: Vec<Vec<Time>> = Vec::with_capacity(classes_json.len());
        for class in classes_json {
            let sizes = class
                .as_arr()
                .ok_or_else(|| malformed("`classes` entries must be arrays"))?;
            let sizes: Option<Vec<Time>> = sizes.iter().map(Json::as_u64).collect();
            classes
                .push(sizes.ok_or_else(|| malformed("job sizes must be non-negative integers"))?);
        }
        let instance =
            Instance::from_classes(machines, &classes).map_err(|e| CorpusError::Malformed {
                line: line_no,
                reason: e.to_string(),
            })?;
        Ok(SolveRequest { id, instance })
    }

    /// Asserts the streaming decoder and the tree reference agree on `line`
    /// (same request, or same error kind + line; byte offsets inside JSON
    /// errors may differ for interleaved-field lines).
    fn assert_agrees(line: &str) {
        let fast = read_instance_line(7, line);
        let tree = read_instance_line_via_tree(7, line);
        match (&fast, &tree) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.id, b.id, "{line}");
                assert_eq!(a.instance, b.instance, "{line}");
            }
            (Err(CorpusError::Json { line: la, .. }), Err(CorpusError::Json { line: lb, .. })) => {
                assert_eq!(la, lb, "{line}");
            }
            (
                Err(CorpusError::Malformed {
                    line: la,
                    reason: ra,
                }),
                Err(CorpusError::Malformed {
                    line: lb,
                    reason: rb,
                }),
            ) => {
                assert_eq!((la, ra), (lb, rb), "{line}");
            }
            other => panic!("decoders disagree on {line}: {other:?}"),
        }
    }

    #[test]
    fn instance_line_round_trip() {
        let inst = Instance::from_classes(3, &[vec![4, 3], vec![5], vec![2, 2, 2]]).unwrap();
        let line = write_instance_line(Some("x-1"), &inst);
        let req = read_instance_line(1, &line).unwrap();
        assert_eq!(req.id.as_deref(), Some("x-1"));
        assert_eq!(req.instance, inst);
    }

    #[test]
    fn decoder_agrees_with_tree_reference() {
        for line in [
            r#"{"id":"a","machines":2,"classes":[[1,2],[3]]}"#,
            r#"{"machines":1,"classes":[]}"#,
            r#"{"machines":1,"classes":[[]]}"#,
            r#" { "classes" : [ [ 1 ] ] , "machines" : 4 } "#,
            r#"{"id":"é \"q\" 😀","machines":2,"classes":[[0]]}"#,
            r#"{"id":7,"machines":2,"classes":[[1]]}"#,
            r#"{"extra":{"nested":[1,"x",null,true]},"machines":2,"classes":[[1]]}"#,
            r#"{"machines":2,"classes":[[1]],"machines":9}"#,
            r#"{"id":"a","id":"b","machines":2,"classes":[[1]]}"#,
            r#"{}"#,
            r#"{"machines":0,"classes":[[1]]}"#,
            r#"{"machines":-3,"classes":[[1]]}"#,
            r#"{"machines":2}"#,
            r#"{"machines":2,"classes":7}"#,
            r#"{"machines":2,"classes":[7]}"#,
            r#"{"machines":2,"classes":[[-1]]}"#,
            r#"{"machines":2,"classes":[[1.5]]}"#,
            r#"{"machines":2,"classes":[[01]]}"#,
            r#"{"machines":2,"classes":[[18446744073709551616]]}"#,
            r#"{"machines":2,"classes":[["x"]]}"#,
            r#"{"machines":2,"classes":[[1],"x"]}"#,
            r#"{"machines":2,"classes":[[1]]}extra"#,
            r#"{"machines":2,"classes":[[1]"#,
            r#"not json"#,
            r#"[1,2]"#,
            r#"{"machines":18446744073709551615,"classes":[[18446744073709551615],[1]]}"#,
            // Escaped spellings of schema keys are still those keys
            // (matched on the *unescaped* name, like the tree parser).
            r#"{"machine\u0073":2,"classes":[[1]]}"#,
            r#"{"i\u0064":"esc","machines":2,"classes":[[4],[5]]}"#,
            r#"{"\u0069d":7,"id":"second","machines":2,"classes":[[1]]}"#,
            r#"{"classe\u0073":[[9]],"machines":1,"classes":[[1,2]]}"#,
        ] {
            assert_agrees(line);
        }
    }

    #[test]
    fn deep_nesting_is_a_json_error() {
        let deep = "[".repeat(100_000);
        // Top-level value, a skipped member, and the `classes` walk.
        for line in [
            deep.clone(),
            format!("{{\"x\":{deep}"),
            format!("{{\"machines\":2,\"classes\":{deep}"),
        ] {
            match LineDecoder::new().decode(3, &line) {
                Err(CorpusError::Json { line: 3, error }) => {
                    assert_eq!(error.reason, "nesting deeper than 128 levels");
                }
                other => panic!("expected a JSON error, got {other:?}"),
            }
        }
    }

    #[test]
    fn long_ids_decode_in_linear_time() {
        let id = "a".repeat(512 * 1024);
        let line = format!("{{\"id\":\"{id}\",\"machines\":2,\"classes\":[[1]]}}");
        let mut d = LineDecoder::new();
        let started = std::time::Instant::now();
        d.decode(1, &line).unwrap();
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 1.0, "512 KiB id took {took:?}");
        assert_eq!(d.id_str(), Some(id.as_str()));
    }

    #[test]
    fn decoder_is_reusable_and_allocation_lean() {
        let mut d = LineDecoder::new();
        d.decode(1, r#"{"id":"a","machines":2,"classes":[[4,3],[5]]}"#)
            .unwrap();
        assert_eq!(d.id_str(), Some("a"));
        assert_eq!(d.builder().machines(), 2);
        assert_eq!(d.builder().sizes(), &[4, 3, 5]);
        assert_eq!(d.builder().offsets(), &[0, 2, 3]);
        // Reuse with a shorter, id-less line: no stale state.
        d.decode(2, r#"{"machines":1,"classes":[[9]]}"#).unwrap();
        assert_eq!(d.id_str(), None);
        assert_eq!(d.builder().sizes(), &[9]);
        assert_eq!(d.builder().offsets(), &[0, 1]);
        let req = d.build_request();
        assert_eq!(req.id, None);
        assert_eq!(req.instance.machines(), 1);
    }

    #[test]
    fn corpus_round_trip_with_comments() {
        // satellite() builds via from_classes, so the round trip is exact.
        let a = SolveRequest::with_id("a", msrs_gen::satellite(7, 2, 3, 4));
        let b = SolveRequest::new(msrs_gen::photolithography(2, 3, 4, 5));
        let text = format!("# corpus\n\n{}", write_corpus([&a, &b]));
        let back = read_corpus(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].id.as_deref(), Some("a"));
        assert_eq!(back[0].instance, a.instance);
        assert_eq!(back[1].id, None);
        assert_eq!(back[1].instance, b.instance);
    }

    #[test]
    fn interleaved_instances_round_trip_to_canonical_form() {
        // Generators that interleave classes (Instance::new) round-trip to
        // the class-by-class canonical job order: same machines, same
        // per-class size lists, and the serialized form is a fixpoint.
        let inst = msrs_gen::uniform(1, 2, 8, 3, 1, 9);
        let line = write_instance_line(None, &inst);
        let back = read_instance_line(1, &line).unwrap().instance;
        assert_eq!(back.machines(), inst.machines());
        assert_eq!(back.num_jobs(), inst.num_jobs());
        for c in 0..inst.num_classes() {
            assert_eq!(back.class_sizes(c), inst.class_sizes(c));
        }
        assert_eq!(write_instance_line(None, &back), line);
    }

    #[test]
    fn errors_carry_line_numbers() {
        match read_corpus("{\"machines\":2,\"classes\":[[1]]}\nnot json\n") {
            Err(CorpusError::Json { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Json error, got {other:?}"),
        }
        match read_corpus("{\"machines\":0,\"classes\":[[1]]}\n") {
            Err(CorpusError::Malformed { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
