//! Plain-text tables, CSV, and JSON emission for the repro binaries: the
//! paper artifacts render [`TextTable`]s, the extension sweeps return a
//! [`Sweep`] record that renders all three formats from one set of values.

use std::fmt::Write as _;
use std::path::Path;

/// A fixed-width text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(line, "| {:<w$} ", cell, w = widths[c]);
            }
            line.push('|');
            line
        };
        let header = fmt_row(&self.headers, &widths);
        let sep: String = header
            .chars()
            .map(|ch| if ch == '|' { '+' } else { '-' })
            .collect();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&header);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| s.replace(',', ";");
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Format a ratio/speedup.
pub fn x(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// One measured value in a [`Sweep`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A real number and the decimals it is printed with everywhere.
    Num(f64, usize),
    /// A label.
    Text(String),
    /// A verdict.
    Bool(bool),
    /// Not measured for this row.
    Null,
}

impl Value {
    /// The printed form; `None` for [`Value::Null`] and non-finite
    /// numbers, which CSV leaves empty and JSON writes as `null`.
    fn render(&self) -> Option<String> {
        match self {
            Value::Int(v) => Some(v.to_string()),
            Value::Num(v, dp) => v.is_finite().then(|| format!("{v:.dp$}")),
            Value::Text(s) => Some(s.clone()),
            Value::Bool(b) => Some(b.to_string()),
            Value::Null => None,
        }
    }
}

/// One sweep row: an experiment label plus ordered `(key, value)` cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment label (`matrix`, `staggered`, a scenario name, …).
    pub label: String,
    /// Measured cells, in column order.
    pub cells: Vec<(&'static str, Value)>,
    /// `gv-analyze` verdict over the row's traces (`None`: analysis off).
    pub clean: Option<bool>,
}

impl Row {
    /// Start a row.
    pub fn new(label: impl Into<String>, clean: Option<bool>) -> Self {
        Row {
            label: label.into(),
            cells: Vec::new(),
            clean,
        }
    }

    /// Append a cell.
    pub fn cell(mut self, key: &'static str, value: Value) -> Self {
        self.cells.push((key, value));
        self
    }

    /// Append a count.
    pub fn int(self, key: &'static str, v: u64) -> Self {
        self.cell(key, Value::Int(v))
    }

    /// Append a real number printed with `dp` decimals.
    pub fn num(self, key: &'static str, v: f64, dp: usize) -> Self {
        self.cell(key, Value::Num(v, dp))
    }

    /// Append a duration in milliseconds (printed to the nanosecond).
    pub fn ms(self, key: &'static str, v: f64) -> Self {
        self.num(key, v, 6)
    }

    /// Append a label.
    pub fn text(self, key: &'static str, v: impl Into<String>) -> Self {
        self.cell(key, Value::Text(v.into()))
    }

    /// The numeric value under `key`, unrounded.
    ///
    /// # Panics
    /// If the row has no numeric cell named `key`.
    pub fn value(&self, key: &str) -> f64 {
        match self.cells.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Int(v))) => *v as f64,
            Some((_, Value::Num(v, _))) => *v,
            _ => panic!("row {:?} has no numeric cell {key:?}", self.label),
        }
    }
}

/// A sweep's whole result: what [`Sweep::save`] writes to
/// `results/{name}.txt`, `results/{name}.csv` and
/// `results/BENCH_{name}.json`.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// File stem and `bench` value.
    pub name: &'static str,
    /// Heading of the text artifact.
    pub title: String,
    /// Cost divisor the sweep ran at (1 = paper-sized).
    pub scale: u32,
    /// Measurements; every row has the same keys in the same order.
    pub rows: Vec<Row>,
    /// Model predictions and commentary printed under the table.
    pub notes: String,
}

impl Sweep {
    /// `false` if any analyzed row had diagnostics.
    pub fn clean(&self) -> bool {
        self.rows.iter().all(|r| r.clean != Some(false))
    }

    /// Column names: `experiment`, the cell keys, `analyzed_clean`.
    ///
    /// # Panics
    /// If two rows disagree on their keys.
    fn keys(&self) -> Vec<&'static str> {
        let keys = |r: &Row| r.cells.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        let first = self.rows.first().map(keys).unwrap_or_default();
        for r in &self.rows {
            assert_eq!(
                keys(r),
                first,
                "{}: row {:?} key mismatch",
                self.name,
                r.label
            );
        }
        let mut all = vec!["experiment"];
        all.extend(first);
        all.push("analyzed_clean");
        all
    }

    /// Every row's values in column order.
    fn values(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.rows.iter().map(|r| {
            let mut v = vec![Value::Text(r.label.clone())];
            v.extend(r.cells.iter().map(|(_, c)| c.clone()));
            v.push(r.clean.map_or(Value::Null, Value::Bool));
            v
        })
    }

    /// The table behind both the text and the CSV artifact.
    fn table(&self) -> TextTable {
        let mut t = TextTable::new(self.keys());
        for row in self.values() {
            t.row(row.iter().map(|v| v.render().unwrap_or_default()).collect());
        }
        t
    }

    /// The text artifact: title, table, notes.
    pub fn text(&self) -> String {
        format!(
            "{} (scale 1/{})\n\n{}\n{}",
            self.title,
            self.scale,
            self.table().render(),
            self.notes
        )
    }

    /// The CSV artifact.
    pub fn csv(&self) -> String {
        self.table().to_csv()
    }

    /// The JSON record: `{"bench", "scale", "points": [{column: value}]}`.
    pub fn json(&self) -> String {
        let keys = self.keys();
        let points: Vec<String> = self
            .values()
            .map(|row| {
                let fields: Vec<String> = keys
                    .iter()
                    .zip(&row)
                    .map(|(k, v)| {
                        let v = match (v, v.render()) {
                            (_, None) => "null".to_string(),
                            (Value::Text(_), Some(s)) => json_string(&s),
                            (_, Some(s)) => s,
                        };
                        format!("\"{k}\": {v}")
                    })
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"scale\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
            self.name,
            self.scale,
            points.join(",\n")
        )
    }

    /// Write the three artifacts under `results/` (best effort).
    pub fn save(&self) {
        save(self.name, &self.text(), Some(&self.csv()));
        write(&format!("BENCH_{}.json", self.name), &self.json());
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write `results/{file}`; best-effort (prints a warning on failure).
pub fn write(file: &str, content: &str) {
    let dir = Path::new("results");
    let path = dir.join(file);
    if std::fs::create_dir_all(dir).is_err() || std::fs::write(&path, content).is_err() {
        eprintln!("warning: cannot write {}", path.display());
    }
}

/// Write `results/{name}.txt` and, if given, `results/{name}.csv`.
pub fn save(name: &str, text: &str, csv: Option<&str>) {
    write(&format!("{name}.txt"), text);
    if let Some(c) = csv {
        write(&format!("{name}.csv"), c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]).row(vec!["b", "12345"]);
        let s = t.render();
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
        assert!(s.starts_with("+"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(vec!["a,b"]);
        t.row(vec!["x,y"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a;b\nx;y\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(1519.386), "1519.4");
        assert_eq!(ms(8.9), "8.900");
        assert_eq!(ms(0.038), "0.038000");
        assert_eq!(x(2.3), "2.300");
        assert_eq!(pct(0.183), "18.30%");
    }

    /// A hand-built sweep exercising every value kind: a label with a
    /// comma and quotes, non-finite numbers, a missing cell, and analysis
    /// clean, off and dirty.
    fn sample() -> Sweep {
        let row = |label: &str, t: f64, frac: f64, policy: Value, clean| {
            Row::new(label, clean)
                .int("n", 8)
                .ms("t_ms", t)
                .num("frac", frac, 4)
                .cell("policy", policy)
        };
        let fcfs = || Value::Text("fcfs".to_string());
        Sweep {
            name: "sample",
            title: "SAMPLE".to_string(),
            scale: 4,
            rows: vec![
                row("a,\"b\"", 1.5, 0.5, fcfs(), Some(true)),
                row("x", f64::NAN, f64::NAN, fcfs(), None),
                row(
                    "y",
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    Value::Null,
                    Some(false),
                ),
            ],
            notes: "notes\n".to_string(),
        }
    }

    #[test]
    fn every_csv_row_has_the_header_arity() {
        let csv = sample().csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header, "experiment,n,t_ms,frac,policy,analyzed_clean");
        let arity = header.split(',').count();
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 3);
        for line in &rows {
            assert_eq!(line.split(',').count(), arity, "{line}");
        }
        assert_eq!(rows[0], "a;\"b\",8,1.500000,0.5000,fcfs,true");
    }

    #[test]
    fn every_json_point_has_the_same_key_set() {
        let json = sample().json();
        assert!(json.starts_with("{\n  \"bench\": \"sample\",\n  \"scale\": 4,\n"));
        let keys = |line: &str| -> Vec<String> {
            let parts: Vec<&str> = line.split("\": ").collect();
            parts[..parts.len() - 1]
                .iter()
                .map(|p| p.rsplit('"').next().unwrap_or_default().to_string())
                .collect()
        };
        let points: Vec<&str> = json.lines().filter(|l| l.starts_with("    {")).collect();
        assert_eq!(points.len(), 3);
        let first = keys(points[0]);
        assert_eq!(
            first,
            [
                "experiment",
                "n",
                "t_ms",
                "frac",
                "policy",
                "analyzed_clean"
            ]
        );
        for p in &points {
            assert_eq!(keys(p), first, "{p}");
        }
        assert!(points[0].starts_with(r#"    {"experiment": "a,\"b\"", "n": 8"#));
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        let sweep = sample();
        let json = sweep.json();
        assert!(json.contains(
            r#"{"experiment": "x", "n": 8, "t_ms": null, "frac": null, "policy": "fcfs", "analyzed_clean": null}"#
        ));
        assert!(json.contains(
            r#"{"experiment": "y", "n": 8, "t_ms": null, "frac": null, "policy": null, "analyzed_clean": false}"#
        ));
        for out in [json, sweep.csv(), sweep.text()] {
            assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
        }
        assert!(sweep.csv().ends_with("\nx,8,,,fcfs,\ny,8,,,,false\n"));
        assert!(!sweep.clean(), "a dirty row fails the sweep");
    }

    #[test]
    #[should_panic(expected = "key mismatch")]
    fn rows_must_share_their_keys() {
        let mut sweep = sample();
        sweep.rows[1].cells.pop();
        sweep.csv();
    }
}
