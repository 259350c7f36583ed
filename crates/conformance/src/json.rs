//! The one JSON writer behind every machine-readable report.
//!
//! The vendored `serde` is an inert stub, so reports are written by hand,
//! but only here: a report lists its members through [`document`] and
//! [`Object`], and this module owns the layout (block and inline objects,
//! arrays, indentation, `null`, string escaping and number formatting).
//! The layout test below shows every shape.

use std::fmt::{self, Write as _};

/// A value written bare, as its `Display` form: an integer or a bool.
pub trait Literal: fmt::Display {}

impl Literal for bool {}
impl Literal for u32 {}
impl Literal for u64 {}
impl Literal for usize {}

/// Writes one top-level block object, with a trailing newline.
pub fn document(members: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    Object::write(&mut out, Some(1), members);
    out + "\n"
}

/// An open JSON object: each method appends one member.
pub struct Object<'a> {
    out: &'a mut String,
    /// Indent depth of a block object's members, one per line; `None` keeps
    /// an inline object's members on one line.
    depth: Option<usize>,
    empty: bool,
}

impl Object<'_> {
    fn write(out: &mut String, depth: Option<usize>, members: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        let mut object = Object { out, depth, empty: true };
        members(&mut object);
        if let Some(depth) = depth {
            newline(object.out, depth - 1);
        }
        object.out.push('}');
    }

    /// Starts a member: the separator, the indentation and the key.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(if self.depth.is_some() { "," } else { ", " });
        }
        if let Some(depth) = self.depth {
            newline(self.out, depth);
        }
        self.empty = false;
        escaped(self.out, key);
        self.out.push_str(": ");
        self.out
    }

    /// Writes a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        escaped(self.key(key), value);
        self
    }

    /// Writes an integer or bool member.
    pub fn num(&mut self, key: &str, value: impl Literal) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes an optional integer member, `null` when absent.
    pub fn opt(&mut self, key: &str, value: Option<impl Literal>) -> &mut Self {
        match value {
            Some(value) => self.num(key, value),
            None => self.null(key),
        }
    }

    /// Writes a `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// Writes a float member as its shortest round-trip decimal.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite: JSON has no NaN or infinity.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let _ = write!(self.key(key), "{}", finite(value));
        self
    }

    /// Writes a float member with `decimals` digits after the point; panics
    /// like [`Object::float`].
    pub fn fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        let _ = write!(self.key(key), "{:.*}", decimals, finite(value));
        self
    }

    /// Writes an integer list on one line.
    pub fn nums<T: Literal>(&mut self, key: &str, values: &[T]) -> &mut Self {
        let values: Vec<String> = values.iter().map(T::to_string).collect();
        let _ = write!(self.key(key), "[{}]", values.join(", "));
        self
    }

    /// Writes a nested object member, on one line if `inline`.
    pub fn object(
        &mut self,
        key: &str,
        inline: bool,
        f: impl FnOnce(&mut Object<'_>),
    ) -> &mut Self {
        let depth = self.depth.filter(|_| !inline).map(|depth| depth + 1);
        Object::write(self.key(key), depth, f);
        self
    }

    /// Writes an array of objects, one element per line; each element is a
    /// block object unless `inline`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        inline: bool,
        mut f: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        let depth = self.depth.unwrap_or(0);
        let element = (!inline).then_some(depth + 2);
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            newline(out, depth + 1);
            Object::write(out, element, |o| f(o, item));
        }
        newline(out, depth);
        out.push(']');
        self
    }
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n("  ", depth));
}

/// Appends `s` quoted, escaping `"`, `\\` and control characters.
fn escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        let _ = match c {
            '"' | '\\' => write!(out, "\\{c}"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)),
            c => write!(out, "{c}"),
        };
    }
    out.push('"');
}

fn finite(x: f64) -> f64 {
    assert!(x.is_finite(), "report numbers must be finite, got {x}");
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_json_safe() {
        let escape = |s: &str| {
            let mut out = String::new();
            escaped(&mut out, s);
            out
        };
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("tab\tend"), "\"tab\\u0009end\"");
    }

    #[test]
    fn layout_nests_blocks_inline_objects_arrays_and_nulls() {
        let json = document(|o| {
            o.str("schema", "demo-v1").num("seed", 42u64).opt("hot", None::<usize>);
            o.objects("rows", [1u64, 2], false, |o, id| {
                o.num("id", id).nums("tenants", &[58u64, 57]).nums("shed", &[] as &[u64]);
                o.objects("points", [0.0, 0.25], true, |o, rate| {
                    o.float("rate", rate).opt("kill", Some(id));
                });
                o.object("wear", true, |o| {
                    o.num("max", 3u32).fixed("ns", 33_606.25, 1);
                });
            });
            o.objects("empty", Vec::<u64>::new(), true, |o, x| {
                o.num("x", x);
            });
            o.object("churn", false, |o| {
                o.num("timed", true).null("timings");
            });
        });
        let want = r#"{
  "schema": "demo-v1",
  "seed": 42,
  "hot": null,
  "rows": [
    {
      "id": 1,
      "tenants": [58, 57],
      "shed": [],
      "points": [
        {"rate": 0, "kill": 1},
        {"rate": 0.25, "kill": 1}
      ],
      "wear": {"max": 3, "ns": 33606.2}
    },
    {
      "id": 2,
      "tenants": [58, 57],
      "shed": [],
      "points": [
        {"rate": 0, "kill": 2},
        {"rate": 0.25, "kill": 2}
      ],
      "wear": {"max": 3, "ns": 33606.2}
    }
  ],
  "empty": [
  ],
  "churn": {
    "timed": true,
    "timings": null
  }
}
"#;
        assert_eq!(json, want);
    }

    #[test]
    #[should_panic(expected = "report numbers must be finite, got NaN")]
    fn non_finite_floats_are_refused() {
        document(|o| {
            o.float("recall_at_1", f64::NAN);
        });
    }
}
