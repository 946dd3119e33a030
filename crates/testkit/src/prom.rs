//! Parsers for the observability export formats: Prometheus text
//! exposition (version 0.0.4) and folded flamegraph stacks.
//!
//! Both are hand-rolled and dependency-free, mirroring [`shiptlm_kernel::json`]:
//! they exist so CI and integration tests can validate that the kernel's
//! exporters ([`MetricsSnapshot::to_prometheus`] and
//! [`HostProfile::to_folded`]) emit well-formed output, without trusting
//! the code under test to check itself.
//!
//! [`MetricsSnapshot::to_prometheus`]: shiptlm_kernel::metrics::MetricsSnapshot::to_prometheus
//! [`HostProfile::to_folded`]: shiptlm_kernel::metrics::HostProfile::to_folded

use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with the 1-based line number where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PromError {}

fn err(line: usize, message: impl Into<String>) -> PromError {
    PromError {
        line,
        message: message.into(),
    }
}

/// Declared metric type from a `# TYPE` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
    /// Untyped sample.
    Untyped,
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromText {
    /// Declared types, keyed by base metric name.
    pub types: BTreeMap<String, PromKind>,
    /// All samples in file order.
    pub samples: Vec<PromSample>,
}

impl PromText {
    /// Parses `text`, validating structure as it goes.
    ///
    /// # Errors
    ///
    /// Returns a [`PromError`] on malformed headers, names, label syntax
    /// or values, on a sample whose declared family appears without a
    /// `# TYPE` line, and on duplicate `# TYPE` lines.
    pub fn parse(text: &str) -> Result<Self, PromError> {
        let mut out = PromText::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| err(lineno, "TYPE header missing metric name"))?;
                let kind = match it.next() {
                    Some("counter") => PromKind::Counter,
                    Some("gauge") => PromKind::Gauge,
                    Some("histogram") => PromKind::Histogram,
                    Some("untyped") => PromKind::Untyped,
                    Some(k) => return Err(err(lineno, format!("unknown metric type '{k}'"))),
                    None => return Err(err(lineno, "TYPE header missing type")),
                };
                if !valid_name(name) {
                    return Err(err(lineno, format!("invalid metric name '{name}'")));
                }
                if out.types.insert(name.to_string(), kind).is_some() {
                    return Err(err(lineno, format!("duplicate TYPE for '{name}'")));
                }
                continue;
            }
            if line.starts_with('#') {
                continue; // HELP or comment
            }
            out.samples.push(parse_sample(line, lineno)?);
        }
        // Every sample must belong to a declared family (the exporter
        // always writes TYPE headers; a sample without one means the
        // header logic regressed).
        for s in &out.samples {
            let base = s
                .name
                .strip_suffix("_bucket")
                .or_else(|| s.name.strip_suffix("_sum"))
                .or_else(|| s.name.strip_suffix("_count"))
                .filter(|b| out.types.get(*b) == Some(&PromKind::Histogram))
                .or_else(|| {
                    s.name
                        .strip_suffix("_total")
                        .filter(|b| out.types.get(*b) == Some(&PromKind::Counter))
                })
                .unwrap_or(&s.name);
            if !out.types.contains_key(base) {
                return Err(err(0, format!("sample '{}' has no TYPE header", s.name)));
            }
        }
        Ok(out)
    }

    /// All samples of metric `name` (exact match, suffixes included).
    pub fn samples_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a PromSample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// The single sample with `name` and label `key=value`, when present.
    pub fn sample(&self, name: &str, key: &str, value: &str) -> Option<&PromSample> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.label(key) == Some(value))
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_sample(line: &str, lineno: usize) -> Result<PromSample, PromError> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| err(lineno, "sample missing value"))?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(err(lineno, format!("invalid metric name '{name}'")));
    }
    let mut labels = Vec::new();
    let rest = if line[name_end..].starts_with('{') {
        let close = find_label_close(&line[name_end..])
            .ok_or_else(|| err(lineno, "unterminated label set"))?
            + name_end;
        parse_labels(&line[name_end + 1..close], lineno, &mut labels)?;
        &line[close + 1..]
    } else {
        &line[name_end..]
    };
    let mut it = rest.split_whitespace();
    let value_str = it
        .next()
        .ok_or_else(|| err(lineno, "sample missing value"))?;
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| err(lineno, format!("bad sample value '{v}'")))?,
    };
    // An optional timestamp may follow; anything after that is an error.
    if let Some(ts) = it.next() {
        if ts.parse::<i64>().is_err() {
            return Err(err(lineno, format!("bad timestamp '{ts}'")));
        }
        if it.next().is_some() {
            return Err(err(lineno, "trailing tokens after timestamp"));
        }
    }
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Byte offset of the `}` closing a label set, honouring quoted values and
/// backslash escapes: a `}` *inside* a quoted label value is legal in the
/// 0.0.4 format (only `\`, `"` and newline are escaped) and must not
/// terminate the set. The naive `find('}')` this replaces split sample
/// lines like `m{model="a}b"} 1` in the middle of the value — reachable
/// since the gateway exposes user-supplied model names as label values.
fn find_label_close(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (idx, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(idx),
            _ => {}
        }
    }
    None
}

fn parse_labels(
    body: &str,
    lineno: usize,
    out: &mut Vec<(String, String)>,
) -> Result<(), PromError> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| err(lineno, "label missing '='"))?;
        let key = rest[..eq].trim();
        if key.is_empty() || !valid_name(key) {
            return Err(err(lineno, format!("invalid label name '{key}'")));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(err(lineno, "label value must be quoted"));
        }
        // Find the closing quote, honouring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((idx, c)) = chars.next() {
            match c {
                '"' => {
                    end = Some(idx);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    _ => return Err(err(lineno, "bad escape in label value")),
                },
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| err(lineno, "unterminated label value"))?;
        out.push((key.to_string(), value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(err(lineno, "expected ',' between labels"));
        }
    }
    Ok(())
}

/// One folded flamegraph stack: frames root-first plus a sample weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    /// Stack frames, outermost first.
    pub frames: Vec<String>,
    /// Sample weight (microseconds for the kernel profiler).
    pub weight: u64,
}

/// Parses folded flamegraph stacks (`a;b;c weight` per line).
///
/// # Errors
///
/// Returns a [`PromError`] on lines without a weight, with a non-numeric
/// weight, or with empty frames.
pub fn parse_folded(text: &str) -> Result<Vec<FoldedStack>, PromError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| err(lineno, "folded line missing weight"))?;
        let weight = weight
            .parse::<u64>()
            .map_err(|_| err(lineno, format!("bad weight '{weight}'")))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(err(lineno, "empty frame in stack"));
        }
        out.push(FoldedStack { frames, weight });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counter_and_gauge_samples() {
        let text = "# TYPE shiptlm_ship_messages counter\n\
                    shiptlm_ship_messages_total{resource=\"a2b\"} 42\n\
                    # TYPE shiptlm_mbox_occupancy gauge\n\
                    shiptlm_mbox_occupancy{resource=\"mb\"} 3\n";
        let p = PromText::parse(text).unwrap();
        assert_eq!(
            p.types.get("shiptlm_ship_messages"),
            Some(&PromKind::Counter)
        );
        let s = p
            .sample("shiptlm_ship_messages_total", "resource", "a2b")
            .unwrap();
        assert_eq!(s.value, 42.0);
        assert_eq!(
            p.sample("shiptlm_mbox_occupancy", "resource", "mb")
                .unwrap()
                .value,
            3.0
        );
    }

    #[test]
    fn histogram_suffixes_resolve_to_base_type() {
        let text = "# TYPE shiptlm_bus_grant_wait_ns histogram\n\
                    shiptlm_bus_grant_wait_ns_bucket{resource=\"plb\",le=\"1\"} 2\n\
                    shiptlm_bus_grant_wait_ns_bucket{resource=\"plb\",le=\"+Inf\"} 5\n\
                    shiptlm_bus_grant_wait_ns_sum{resource=\"plb\"} 130\n\
                    shiptlm_bus_grant_wait_ns_count{resource=\"plb\"} 5\n";
        let p = PromText::parse(text).unwrap();
        assert_eq!(p.samples.len(), 4);
        let inf = p
            .samples_named("shiptlm_bus_grant_wait_ns_bucket")
            .find(|s| s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 5.0);
    }

    #[test]
    fn sample_without_type_header_is_rejected() {
        let text = "shiptlm_orphan_total{resource=\"x\"} 1\n";
        let e = PromText::parse(text).unwrap_err();
        assert!(e.message.contains("no TYPE header"), "{e}");
    }

    #[test]
    fn malformed_label_syntax_is_rejected() {
        for bad in [
            "# TYPE m counter\nm_total{resource=unquoted} 1\n",
            "# TYPE m counter\nm_total{resource=\"open} 1\n",
            "# TYPE m counter\nm_total{resource=\"v\"",
            "# TYPE m counter\nm_total{resource=\"v\"} abc\n",
        ] {
            assert!(PromText::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn label_escapes_round_trip() {
        let text = "# TYPE m gauge\nm{resource=\"a\\\"b\\\\c\\nd\"} 1\n";
        let p = PromText::parse(text).unwrap();
        assert_eq!(p.samples[0].label("resource"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn brace_inside_quoted_label_value_parses() {
        // `}` is legal inside a quoted value; the label set must close at
        // the *unquoted* brace.
        let text = "# TYPE m gauge\nm{model=\"a}b\",other=\"{x}\"} 7\n";
        let p = PromText::parse(text).unwrap();
        assert_eq!(p.samples[0].label("model"), Some("a}b"));
        assert_eq!(p.samples[0].label("other"), Some("{x}"));
        assert_eq!(p.samples[0].value, 7.0);
    }

    #[test]
    fn kernel_escaping_round_trips_through_the_parser() {
        // The gateway renders user-supplied model names with the kernel's
        // `prom_label`; whatever it emits must come back verbatim.
        use shiptlm_kernel::metrics::prom_label;
        let nasty = [
            "back\\slash",
            "quo\"te",
            "new\nline",
            "bra}ce{open",
            "all of \\ \" \n } , = at once",
        ];
        for original in nasty {
            let text = format!(
                "# TYPE m gauge\nm{{model=\"{}\"}} 1\n",
                prom_label(original)
            );
            let p = PromText::parse(&text).unwrap();
            assert_eq!(
                p.samples[0].label("model"),
                Some(original),
                "escaping of {original:?}"
            );
        }
    }

    #[test]
    fn parses_folded_stacks() {
        let text = "kernel;evaluate 120\nkernel;evaluate;producer 80\n\nkernel;update 5\n";
        let stacks = parse_folded(text).unwrap();
        assert_eq!(stacks.len(), 3);
        assert_eq!(stacks[1].frames, vec!["kernel", "evaluate", "producer"]);
        assert_eq!(stacks[1].weight, 80);
    }

    #[test]
    fn folded_rejects_missing_weight_and_empty_frames() {
        assert!(parse_folded("kernel;evaluate\n").is_err());
        assert!(parse_folded("kernel;;x 4\n").is_err());
        assert!(parse_folded("kernel;evaluate abc\n").is_err());
    }
}
