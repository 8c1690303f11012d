//! Shared harness plumbing: network selection, library rows, options.

use std::path::PathBuf;

use empi_aead::profile::CryptoLibrary;
use empi_netsim::NetModel;

/// The two interconnects of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// 10 GbE + MPICH-3.2.1 (§V-A).
    Ethernet,
    /// 40 Gb IB QDR + MVAPICH2-2.3 (§V-B).
    Infiniband,
}

impl Net {
    /// Fabric model.
    pub fn model(self) -> NetModel {
        match self {
            Net::Ethernet => NetModel::ethernet_10g(),
            Net::Infiniband => NetModel::infiniband_40g(),
        }
    }

    /// Display name used in table titles.
    pub fn name(self) -> &'static str {
        match self {
            Net::Ethernet => "Ethernet",
            Net::Infiniband => "Infiniband",
        }
    }

    /// Both networks.
    pub const BOTH: [Net; 2] = [Net::Ethernet, Net::Infiniband];
}

/// Message-size subset selection for harnesses that group sizes into a
/// small-message table and a medium/large figure series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeSel {
    /// Only the small-message group (TAB-1/TAB-5 sizes).
    Small,
    /// Only the medium/large group (FIG-3/FIG-10 sizes).
    Large,
    /// Everything.
    All,
}

impl SizeSel {
    /// Does this selection include the group named `group`?
    pub fn includes(self, group: SizeSel) -> bool {
        self == SizeSel::All || self == group
    }
}

/// The rows of every paper table: baseline plus the three reported
/// libraries (OpenSSL ≈ BoringSSL, so the paper prints BoringSSL only).
pub fn reported_rows() -> Vec<Option<CryptoLibrary>> {
    vec![
        None,
        Some(CryptoLibrary::BoringSsl),
        Some(CryptoLibrary::Libsodium),
        Some(CryptoLibrary::CryptoPp),
    ]
}

/// Table row label for a configuration.
pub fn row_label(lib: Option<CryptoLibrary>) -> String {
    match lib {
        None => "Unencrypted".to_string(),
        Some(l) => l.name().to_string(),
    }
}

/// Harness options shared by every harness of the `empi-bench` binary.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Fewer sizes / iterations for a fast smoke run.
    pub quick: bool,
    /// Networks to run.
    pub nets: Vec<Net>,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Record virtual-time traces and emit decomposition tables plus
    /// Chrome trace JSON (`--trace`).
    pub trace: bool,
    /// Size-group filter for harnesses that split small vs large.
    pub sizes: SizeSel,
    /// Carrier threads for every world the harness builds (`--shards
    /// N`, default 1): up to `N` host threads run rank code at once.
    /// Every runner that builds a world takes it as its last argument.
    /// Changes wall-clock only: virtual results are bit-identical.
    pub shards: usize,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            quick: false,
            nets: Net::BOTH.to_vec(),
            out_dir: PathBuf::from("results"),
            trace: false,
            sizes: SizeSel::All,
            shards: 1,
        }
    }
}

/// One line of flag documentation, shared by `--help` and error paths.
pub const USAGE: &str = "flags: --quick  --net ethernet|infiniband|both  --out DIR  \
                     --trace  --sizes small|large|all  --shards N";

/// The shared flags, as [`BenchOpts::try_parse`] spells them.
const FLAGS: [&str; 6] = [
    "--quick", "--net", "--out", "--trace", "--sizes", "--shards",
];

/// Refuse a shared flag in `args` that is not in `reads`: a tool that
/// reads only `reads` would otherwise ignore it and run something other
/// than what was asked (`headline --quick` running the full set).
pub fn reject_unread(args: &[String], reads: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| FLAGS.contains(&a.as_str()) && !reads.contains(&a.as_str()))
    {
        Some(flag) => Err(format!("'{flag}' is a shared flag this tool ignores")),
        None => Ok(()),
    }
}

/// Print a parse error plus the usage line to stderr and exit nonzero.
/// A bad flag is operator error, not a program bug — no backtrace.
pub fn usage_err(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

impl BenchOpts {
    /// Parse the common flags: `--quick`, `--net ethernet|infiniband|both`,
    /// `--out DIR`, `--trace`, `--sizes small|large|all`, `--shards N`.
    ///
    /// Unknown flags or values print the usage to stderr and exit with
    /// status 2 instead of panicking (`--help` is the binary's: it
    /// prints the registry before any flag is parsed).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|msg| usage_err(&msg))
    }

    /// Fallible core of [`BenchOpts::parse`]; separated so tests can
    /// exercise the error paths without a child process.
    pub fn try_parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOpts::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--net" => {
                    let v = args.next().ok_or("--net needs a value")?;
                    opts.nets = match v.as_str() {
                        "ethernet" => vec![Net::Ethernet],
                        "infiniband" => vec![Net::Infiniband],
                        "both" => Net::BOTH.to_vec(),
                        other => return Err(format!("unknown network '{other}'")),
                    };
                }
                "--out" => {
                    opts.out_dir = PathBuf::from(args.next().ok_or("--out needs a value")?);
                }
                "--trace" => opts.trace = true,
                "--shards" => {
                    let v = args.next().ok_or("--shards needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--shards: bad count '{v}'"))?;
                    opts.shards = n.max(1);
                }
                "--sizes" => {
                    let v = args.next().ok_or("--sizes needs a value")?;
                    opts.sizes = match v.as_str() {
                        "small" => SizeSel::Small,
                        "large" => SizeSel::Large,
                        "all" => SizeSel::All,
                        other => return Err(format!("unknown size group '{other}'")),
                    };
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let o = BenchOpts::try_parse(
            [
                "--quick", "--net", "ethernet", "--out", "/tmp/r", "--trace", "--sizes", "large",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.nets, vec![Net::Ethernet]);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/r"));
        assert!(o.trace);
        assert_eq!(o.sizes, SizeSel::Large);
    }

    #[test]
    fn bad_input_reports_instead_of_panicking() {
        let parse = |v: &[&str]| BenchOpts::try_parse(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--net", "token-ring"])
            .unwrap_err()
            .contains("unknown network"));
        assert!(parse(&["--sizes", "jumbo"])
            .unwrap_err()
            .contains("unknown size group"));
        assert!(parse(&["--net"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--reps", "2,5"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--shards"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--shards", "many"])
            .unwrap_err()
            .contains("bad count"));
        assert!(parse(&["--quick"]).is_ok());
    }

    #[test]
    fn tools_refuse_shared_flags_they_do_not_read() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let reads = |name: &str| {
            crate::registry::TOOLS
                .iter()
                .find(|t| t.0 == name)
                .unwrap()
                .2
        };
        let refused = |tool: &str, v: &[&str]| reject_unread(&args(v), reads(tool)).is_err();
        assert!(refused("headline", &["--quick"]));
        assert!(refused("headline", &["--nas", "--net", "ethernet"]));
        assert!(!refused("headline", &["--nas", "--shards", "2"]));
        assert!(refused("shardscale", &["--trace"]));
        assert!(refused("shardscale", &["--quick", "--sizes", "small"]));
        assert!(!refused(
            "shardscale",
            &["--quick", "--net", "ethernet", "--out", "/tmp/r", "--shards", "2"]
        ));
        assert!(refused("tracecheck", &["--quick"]));
        assert!(!refused(
            "tracecheck",
            &["results/trace-pingpong-ethernet.json"]
        ));
        assert!(refused("plot", &["--shards", "2"]));
        // Every flag a tool may read is a shared flag the parser knows.
        for (_, _, reads, _) in &crate::registry::TOOLS {
            for flag in *reads {
                assert!(FLAGS.contains(flag), "{flag}");
            }
        }
        for flag in FLAGS {
            let err = BenchOpts::try_parse(args(&[flag]).into_iter()).err();
            assert!(!err.is_some_and(|e| e.contains("unknown flag")), "{flag}");
        }
    }

    #[test]
    fn shards_flag_parses_and_clamps() {
        let parse = |v: &[&str]| BenchOpts::try_parse(v.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--shards", "8"]).unwrap().shards, 8);
        assert_eq!(parse(&["--shards", "0"]).unwrap().shards, 1, "clamped");
    }

    #[test]
    fn size_selection_includes() {
        assert!(SizeSel::All.includes(SizeSel::Small));
        assert!(SizeSel::All.includes(SizeSel::Large));
        assert!(SizeSel::Small.includes(SizeSel::Small));
        assert!(!SizeSel::Small.includes(SizeSel::Large));
        assert!(!SizeSel::Large.includes(SizeSel::Small));
    }

    #[test]
    fn rows_match_paper() {
        let rows: Vec<String> = reported_rows().into_iter().map(row_label).collect();
        assert_eq!(rows, ["Unencrypted", "BoringSSL", "Libsodium", "CryptoPP"]);
    }
}
