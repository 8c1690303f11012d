//! Terminal rendering of the paper's figures: log-x line charts of the
//! CSV series produced by the harnesses. Good enough to eyeball the
//! crossovers and saturation shapes the paper's figures show.
//!
//! ```bash
//! cargo run --release -p empi-bench -- plot results/fig-3.csv
//! cargo run --release -p empi-bench -- plot            # all figures
//! ```

use std::process::ExitCode;

/// One rendered series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points; x is plotted on a log axis.
    pub points: Vec<(f64, f64)>,
}

/// Render series as an ASCII chart of `width × height` characters
/// (plus axes). Y is linear unless `log_y`.
pub fn render(title: &str, series: &[Series], width: usize, height: usize, log_y: bool) -> String {
    assert!(width >= 16 && height >= 4);
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let tx = |x: f64| x.max(1e-12).log10();
    let ty = |y: f64| if log_y { y.max(1e-12).log10() } else { y };
    let (x0, x1) = min_max(all.iter().map(|p| tx(p.0)));
    let (y0, y1) = min_max(all.iter().map(|p| ty(p.1)));
    let xs = if (x1 - x0).abs() < 1e-12 {
        1.0
    } else {
        x1 - x0
    };
    let ys = if (y1 - y0).abs() < 1e-12 {
        1.0
    } else {
        y1 - y0
    };

    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    for (si, s) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        // Plot points and linear interpolation between consecutive ones.
        let cells: Vec<(usize, usize)> = s
            .points
            .iter()
            .map(|&(x, y)| {
                let cx = ((tx(x) - x0) / xs * (width - 1) as f64).round() as usize;
                let cy = ((ty(y) - y0) / ys * (height - 1) as f64).round() as usize;
                (cx.min(width - 1), (height - 1) - cy.min(height - 1))
            })
            .collect();
        for w in cells.windows(2) {
            let ((ax, ay), (bx, by)) = (w[0], w[1]);
            let steps = ax.abs_diff(bx).max(ay.abs_diff(by)).max(1);
            for k in 0..=steps {
                let x = ax as f64 + (bx as f64 - ax as f64) * k as f64 / steps as f64;
                let y = ay as f64 + (by as f64 - ay as f64) * k as f64 / steps as f64;
                let (xi, yi) = (x.round() as usize, y.round() as usize);
                if grid[yi][xi] == ' ' || k == 0 || k == steps {
                    grid[yi][xi] = mark;
                }
            }
        }
        if cells.len() == 1 {
            let (x, y) = cells[0];
            grid[y][x] = mark;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let ylab = |v: f64| -> f64 {
        if log_y {
            10f64.powf(v)
        } else {
            v
        }
    };
    for (r, row) in grid.iter().enumerate() {
        let yv = y1 - ys * r as f64 / (height - 1) as f64;
        out.push_str(&format!("{:>10.1} |", ylab(yv)));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>10}  {:<w$.0}{:>10.0}\n",
        "",
        10f64.powf(x0),
        10f64.powf(x1),
        w = width - 10
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", marks[si % marks.len()], s.label));
    }
    out
}

fn min_max(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Parse a harness CSV (`# title` comment, header of x labels, rows of
/// `label,value…`) back into plot series.
pub fn series_from_csv(csv: &str) -> (String, Vec<Series>) {
    let mut title = String::new();
    let mut xs: Vec<f64> = Vec::new();
    let mut series = Vec::new();
    for line in csv.lines() {
        if let Some(t) = line.strip_prefix("# ") {
            title = t.to_string();
        } else if xs.is_empty() {
            xs = line
                .split(',')
                .skip(1)
                .map(|h| parse_size_label(h.trim()))
                .collect();
        } else if !line.trim().is_empty() {
            let mut parts = split_csv(line);
            let label = parts.remove(0);
            let points = parts
                .iter()
                .zip(xs.iter())
                .map(|(v, &x)| (x, v.replace(',', "").parse::<f64>().unwrap_or(f64::NAN)))
                .filter(|(_, y)| y.is_finite())
                .collect();
            series.push(Series { label, points });
        }
    }
    (title, series)
}

fn split_csv(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            ',' if !quoted => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    out.push(cur);
    out
}

/// "16KB" → 16384, "2MB" → 2097152, "8" → 8, "1B" → 1.
pub fn parse_size_label(s: &str) -> f64 {
    let s = s.trim();
    if let Some(n) = s.strip_suffix("MB") {
        n.parse::<f64>().unwrap_or(f64::NAN) * (1 << 20) as f64
    } else if let Some(n) = s.strip_suffix("KB") {
        n.parse::<f64>().unwrap_or(f64::NAN) * 1024.0
    } else if let Some(n) = s.strip_suffix('B') {
        n.parse::<f64>().unwrap_or(f64::NAN)
    } else {
        s.parse::<f64>().unwrap_or(f64::NAN)
    }
}

/// The `plot` subcommand: render the given figure CSVs — or, with no
/// argument, every `results/fig-*.csv` — as terminal charts.
pub fn run(args: Vec<String>) -> ExitCode {
    let files: Vec<String> = if args.is_empty() {
        let mut v: Vec<String> = std::fs::read_dir("results")
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path().display().to_string())
                    .filter(|p| p.ends_with(".csv") && p.contains("fig-"))
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("no figure CSVs found; run the harnesses first");
        return ExitCode::FAILURE;
    }
    for f in files {
        match std::fs::read_to_string(&f) {
            Ok(csv) => {
                let (title, series) = series_from_csv(&csv);
                let log_y = title.contains("overhead") || title.contains("throughput");
                println!("{}", render(&title, &series, 64, 16, log_y));
            }
            Err(e) => eprintln!("{f}: {e}"),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels_parse() {
        assert_eq!(parse_size_label("1B"), 1.0);
        assert_eq!(parse_size_label("16KB"), 16384.0);
        assert_eq!(parse_size_label("2MB"), 2097152.0);
        assert_eq!(parse_size_label("8"), 8.0);
    }

    #[test]
    fn csv_round_trip_to_series() {
        let csv =
            "# FIG-X: demo\n,1B,16KB,2MB\nUnencrypted,0.05,200,\"1,038\"\nBoringSSL,0.04,170,592\n";
        let (title, series) = series_from_csv(csv);
        assert_eq!(title, "FIG-X: demo");
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 3);
        assert_eq!(series[0].points[2], (2097152.0, 1038.0));
    }

    #[test]
    fn render_contains_all_legends_and_marks() {
        let s = vec![
            Series {
                label: "base".into(),
                points: vec![(1.0, 1.0), (1000.0, 100.0)],
            },
            Series {
                label: "enc".into(),
                points: vec![(1.0, 0.5), (1000.0, 50.0)],
            },
        ];
        let chart = render("demo", &s, 40, 10, true);
        assert!(chart.contains("demo"));
        assert!(chart.contains("* base"));
        assert!(chart.contains("o enc"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
    }

    #[test]
    fn single_point_series_render() {
        let s = vec![Series {
            label: "dot".into(),
            points: vec![(100.0, 5.0)],
        }];
        let chart = render("one", &s, 20, 5, false);
        assert!(chart.contains('*'));
    }
}
