//! Minimal JSON output (the engine's `Json` has no floats).

use std::fmt;

pub enum Val {
    F(f64),
    U(u64),
    S(String),
    O(Vec<(String, Val)>),
}

/// An object builder: `obj().f("x", 1.5).u("n", 3)`.
#[derive(Default)]
pub struct Obj(Vec<(String, Val)>);

pub fn obj() -> Obj {
    Obj::default()
}

impl Obj {
    pub fn f(mut self, key: &str, v: f64) -> Obj {
        self.0.push((key.into(), Val::F(v)));
        self
    }
    pub fn u(mut self, key: &str, v: u64) -> Obj {
        self.0.push((key.into(), Val::U(v)));
        self
    }
    pub fn s(mut self, key: &str, v: impl Into<String>) -> Obj {
        self.0.push((key.into(), Val::S(v.into())));
        self
    }
    pub fn o(mut self, key: &str, v: Obj) -> Obj {
        self.0.push((key.into(), Val::O(v.0)));
        self
    }
    pub fn push_f(&mut self, key: &str, v: f64) {
        self.0.push((key.into(), Val::F(v)));
    }
    pub fn push_u(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), Val::U(v)));
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JSON has no NaN/inf; an undefined ratio prints as 0.
            Val::F(x) if !x.is_finite() => f.write_str("0"),
            Val::F(x) => write!(f, "{x}"),
            Val::U(x) => write!(f, "{x}"),
            Val::S(s) => write_str(f, s),
            Val::O(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write_str(f, k)?;
            write!(f, ":{v}")?;
        }
        f.write_str("}")
    }
}

/// `part / whole`, 0 when `whole` is 0 (an empty base).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
