//! Shared harness plumbing: network selection, library rows, options.

use std::path::PathBuf;

use empi_aead::profile::CryptoLibrary;
use empi_core::{SecurityConfig, TimingMode};
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

/// The paper's security configuration for `lib` on `net` (256-bit key,
/// random nonces, timing calibrated to the matching compiler build).
pub fn security_config(lib: CryptoLibrary, net: Net) -> SecurityConfig {
    SecurityConfig::new(lib).with_timing(TimingMode::calibrated_for(&net.model()))
}

/// The configuration behind one table row on `net`: `None` for the
/// unencrypted baseline, the paper's configuration for a library.
pub fn row_config(lib: Option<CryptoLibrary>, net: Net) -> Option<SecurityConfig> {
    lib.map(|l| security_config(l, net))
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
    /// Minimum repetitions per measurement.
    pub reps_min: usize,
    /// Maximum repetitions before the CI criterion takes over.
    pub reps_max: usize,
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
            reps_min: 2,
            reps_max: 5,
            trace: false,
            sizes: SizeSel::All,
            shards: 1,
        }
    }
}

/// One line of flag documentation, shared by `--help` and error paths.
pub const USAGE: &str = "flags: --quick  --net ethernet|infiniband|both  --out DIR  \
                     --reps MIN,MAX  --trace  --sizes small|large|all  --shards N";

/// Print a parse error plus the usage line to stderr and exit nonzero.
/// A bad flag is operator error, not a program bug — no backtrace.
pub fn usage_err(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

impl BenchOpts {
    /// Parse the common flags: `--quick`, `--net ethernet|infiniband|both`,
    /// `--out DIR`, `--reps MIN,MAX`, `--trace`, `--sizes small|large|all`,
    /// `--shards N`.
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
                "--reps" => {
                    let v = args.next().ok_or("--reps needs MIN,MAX")?;
                    let (lo, hi) = v.split_once(',').ok_or("--reps needs MIN,MAX")?;
                    opts.reps_min = lo.parse().map_err(|_| format!("--reps: bad MIN '{lo}'"))?;
                    opts.reps_max = hi.parse().map_err(|_| format!("--reps: bad MAX '{hi}'"))?;
                    if opts.reps_min < 1 || opts.reps_max < opts.reps_min {
                        return Err(format!("--reps: need 1 <= MIN <= MAX, got '{v}'"));
                    }
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
                "--quick", "--net", "ethernet", "--out", "/tmp/r", "--reps", "3,7", "--trace",
                "--sizes", "large",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.nets, vec![Net::Ethernet]);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/r"));
        assert_eq!((o.reps_min, o.reps_max), (3, 7));
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
        assert!(parse(&["--reps", "3"]).unwrap_err().contains("MIN,MAX"));
        assert!(parse(&["--reps", "x,7"]).unwrap_err().contains("bad MIN"));
        assert!(parse(&["--reps", "0,5"])
            .unwrap_err()
            .contains("MIN <= MAX"));
        assert!(parse(&["--reps", "5,3"])
            .unwrap_err()
            .contains("MIN <= MAX"));
        assert!(parse(&["--shards"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--shards", "many"])
            .unwrap_err()
            .contains("bad count"));
        assert!(parse(&["--quick"]).is_ok());
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

    #[test]
    fn security_config_uses_matching_build() {
        use empi_aead::profile::CompilerBuild;
        let eth = security_config(CryptoLibrary::BoringSsl, Net::Ethernet);
        assert_eq!(eth.timing, TimingMode::Calibrated(CompilerBuild::Gcc485));
        let ib = security_config(CryptoLibrary::BoringSsl, Net::Infiniband);
        assert_eq!(ib.timing, TimingMode::Calibrated(CompilerBuild::Mvapich23));
    }
}
