//! Report formatting: the rows/series the paper's figures plot, as text
//! tables and CSV.

use std::fmt::Write as _;

/// One row of a figure: a configuration label and its per-policy means.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// X-axis label (e.g. `8L`, `cv=2`).
    pub label: String,
    /// Static policy mean response (seconds), when the figure has one.
    pub static_mean: Option<f64>,
    /// Time-sharing mean response (seconds), when the figure has one.
    pub ts_mean: Option<f64>,
    /// Additional pre-formatted columns.
    pub extra: Vec<String>,
}

impl FigureRow {
    /// The row's values in column order (static, ts, extras), skipping the
    /// columns this figure does not have.
    pub fn values(&self) -> Vec<String> {
        let mut v = Vec::new();
        if let Some(s) = self.static_mean {
            v.push(format!("{s:.3}"));
        }
        if let Some(t) = self.ts_mean {
            v.push(format!("{t:.3}"));
        }
        v.extend(self.extra.iter().cloned());
        v
    }
}

/// A complete figure: title, column headers and rows.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure caption.
    pub title: String,
    /// Column headers (excluding the label column).
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(["config".len()])
            .max()
            .unwrap_or(6);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, v) in row.values().iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(v.len());
                }
            }
        }
        let _ = write!(out, "{:<label_w$}", "config");
        for (c, w) in self.columns.iter().zip(&widths) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        let total = label_w + widths.iter().map(|w| w + 2).sum::<usize>();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = write!(out, "{:<label_w$}", row.label);
            for (v, w) in row.values().iter().zip(&widths) {
                let _ = write!(out, "  {v:>w$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (label column first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "config");
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "{}", row.label);
            for v in row.values() {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The ratio of time-sharing to static mean per row, for rows that
    /// have both (shape checking in tests and EXPERIMENTS.md).
    pub fn ts_over_static(&self) -> Vec<(String, f64)> {
        self.rows
            .iter()
            .filter_map(|r| match (r.static_mean, r.ts_mean) {
                (Some(s), Some(t)) if s > 0.0 => Some((r.label.clone(), t / s)),
                _ => None,
            })
            .collect()
    }

    /// Look up a row by label.
    pub fn row(&self, label: &str) -> Option<&FigureRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "**{}**\n", self.title);
        let _ = write!(out, "| config |");
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "| {} |", row.label);
            for v in row.values() {
                let _ = write!(out, " {v} |");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Render a [`parsched_obs::MetricsRegistry`] as a [`FigureTable`]: one row
/// per gauge (time-weighted mean, peak, last value) followed by one row per
/// counter. The same table renders to text for the console and CSV for
/// files, like every other report in this module.
pub fn metrics_table(registry: &parsched_obs::MetricsRegistry, title: &str) -> FigureTable {
    let mut rows = Vec::new();
    for (name, id) in registry.gauges() {
        rows.push(FigureRow {
            label: name.to_string(),
            static_mean: None,
            ts_mean: None,
            extra: vec![
                "gauge".into(),
                format!("{:.9}", registry.mean(id)),
                format!("{}", registry.peak(id)),
                format!("{}", registry.value(id)),
            ],
        });
    }
    for (name, value) in registry.counters() {
        rows.push(FigureRow {
            label: name.to_string(),
            static_mean: None,
            ts_mean: None,
            extra: vec![
                "counter".into(),
                String::new(),
                String::new(),
                format!("{value}"),
            ],
        });
    }
    FigureTable {
        title: title.to_string(),
        columns: vec!["kind".into(), "mean".into(), "peak".into(), "last".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureTable {
        FigureTable {
            title: "demo".into(),
            columns: vec!["static".into(), "ts".into()],
            rows: vec![
                FigureRow {
                    label: "1".into(),
                    static_mean: Some(1.0),
                    ts_mean: Some(1.0),
                    extra: Vec::new(),
                },
                FigureRow {
                    label: "16L".into(),
                    static_mean: Some(2.0),
                    ts_mean: Some(6.0),
                    extra: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn text_table_is_aligned() {
        let t = sample().to_text();
        assert!(t.contains("demo"));
        assert!(t.contains("config"));
        assert!(t.contains("16L"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
    }

    #[test]
    fn csv_round_numbers() {
        let c = sample().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "config,static,ts");
        assert_eq!(lines[1], "1,1.000,1.000");
        assert_eq!(lines[2], "16L,2.000,6.000");
    }

    #[test]
    fn ratios() {
        let r = sample().ts_over_static();
        assert_eq!(r.len(), 2);
        assert!((r[1].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn markdown_table_shape() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert!(lines[0].starts_with("**demo**"));
        assert_eq!(lines[2], "| config | static | ts |");
        assert_eq!(lines[3], "|---|---|---|");
        assert_eq!(lines[4], "| 1 | 1.000 | 1.000 |");
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn row_lookup() {
        let t = sample();
        assert!(t.row("16L").is_some());
        assert!(t.row("8H").is_none());
    }

    #[test]
    fn metrics_table_has_gauge_and_counter_rows() {
        use parsched_des::SimTime;
        let mut reg = parsched_obs::MetricsRegistry::new(SimTime::ZERO);
        let g = reg.gauge("node0.cpu_busy", 0.0);
        let c = reg.counter("msgs");
        reg.set(g, SimTime::ZERO, 1.0);
        reg.inc(c, 3);
        reg.finish(SimTime(100));
        let t = metrics_table(&reg, "demo metrics");
        assert_eq!(t.columns, vec!["kind", "mean", "peak", "last"]);
        let busy = t.row("node0.cpu_busy").expect("gauge row");
        assert_eq!(busy.extra[0], "gauge");
        assert_eq!(busy.extra[1], "1.000000000");
        let msgs = t.row("msgs").expect("counter row");
        assert_eq!(msgs.extra[0], "counter");
        assert_eq!(msgs.extra[3], "3");
        assert!(t.to_csv().contains("node0.cpu_busy,gauge,1.000000000,1,1"));
    }
}
