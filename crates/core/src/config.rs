//! Security configuration: which library, key size, nonce policy,
//! pipelining, faults, retransmit and key plane. What crypto costs on
//! the virtual clock is not configured: it follows the world's
//! interconnect ([`compiler_build`]).

use empi_aead::nonce::NoncePolicy;
use empi_aead::profile::{CompilerBuild, CryptoLibrary, KeySize};
use empi_keys::KeyPlaneConfig;
use empi_netsim::{FaultRates, NetModel, VDur};
use empi_pipeline::PipelineConfig;

/// The compiler build whose calibrated curves (digitized from the
/// paper's Figs. 2/9) price crypto on the interconnect named
/// `model_name`: the paper pairs gcc 4.8.5 with the Ethernet/MPICH
/// stack and the MVAPICH2-2.3 toolchain with InfiniBand.
///
/// Real crypto always executes; its virtual cost comes from this model
/// (DESIGN.md §2, "wall-clock timing" substitution), never from the
/// host clock, so every run of a configuration reports the same times.
pub(crate) fn compiler_build(model_name: &str) -> CompilerBuild {
    if model_name.contains("MVAPICH") {
        CompilerBuild::Mvapich23
    } else {
        CompilerBuild::Gcc485
    }
}

/// Does nothing: a [`crate::SecureComm`] prices its crypto for its
/// world's interconnect ([`compiler_build`]).
#[deprecated = "crypto is priced for the world's interconnect; this is a no-op"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingMode;

#[allow(deprecated)]
impl TimingMode {
    /// Does nothing (see [`TimingMode`]).
    #[deprecated = "crypto is priced for the world's interconnect; this is a no-op"]
    pub fn calibrated_for(_model: &NetModel) -> TimingMode {
        TimingMode
    }
}

/// Deterministic fault injection: a seed plus per-event rates (see
/// [`empi_netsim::FaultPlan`]). With a plan installed, every sealed
/// frame leaving this rank draws a replayable verdict — bit-flip,
/// truncation, drop, duplication or latency jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; `(seed, rates)` fully determines every fault.
    pub seed: u64,
    /// Per-event injection probabilities and shape parameters.
    pub rates: FaultRates,
}

/// Retransmit/recovery (ARQ) tuning for [`crate::SecureComm`].
///
/// The protocol is NACK-only: at a fault rate of zero it adds no wire
/// frames at all. On an authentication/length/protocol failure the
/// receiver sends a typed NACK; the sender answers from a bounded
/// retained-frame buffer; repair round `a` is awaited for
/// `timeout * 2^a` of virtual time, capped at `8 * timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// NACK rounds per message before the receiver gives up with
    /// [`crate::Error::DeliveryFailed`] / [`crate::Error::Timeout`].
    pub max_retries: u32,
    /// Base repair-wait window (virtual time) for the backoff schedule.
    pub timeout: VDur,
    /// Sent messages retained for repair (FIFO evict; a NACK for an
    /// evicted message is answered with an abort).
    pub buffer_msgs: usize,
}

impl RetransmitConfig {
    /// Default retained-message buffer depth.
    pub const DEFAULT_BUFFER_MSGS: usize = 32;
}

/// The key the paper hardcodes in its prototypes ("the encryption key
/// was hardcoded in the source code"; key distribution is future work).
pub const HARDCODED_KEY: [u8; 32] = [
    0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77, 0x81,
    0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14, 0xdf, 0xf4,
];

/// Full security configuration of a [`crate::SecureComm`].
#[derive(Debug, Clone)]
pub struct SecurityConfig {
    /// Which of the four libraries provides AES-GCM.
    pub library: CryptoLibrary,
    /// 128- or 256-bit keys (the paper reports 256-bit results).
    pub key_size: KeySize,
    /// Shared symmetric key (only the first `key_size.bytes()` are used).
    pub key: [u8; 32],
    /// Fresh-nonce policy (the paper uses `RAND_bytes(12)` per message).
    pub nonce_policy: NoncePolicy,
    /// Chunked multi-core crypto pipelining (off by default; the
    /// sequential paper path is the reference behavior).
    pub pipeline: PipelineConfig,
    /// Deterministic fault injection (off by default).
    pub faults: Option<FaultConfig>,
    /// NACK-driven retransmit/recovery layer (off by default; without
    /// it, injected faults surface as typed errors to the caller).
    pub retransmit: Option<RetransmitConfig>,
    /// In-band key lifecycle (`empi_keys`): a seeded group handshake
    /// at startup replaces the hardcoded cluster key with a fresh
    /// session master (the configured key is demoted to a bootstrap
    /// KEK), optionally rotating group epochs on a virtual-time
    /// schedule. Changes the wire format (records grow an
    /// authenticated epoch prefix), so all ranks must agree. Off by
    /// default (the paper's hardcoded-key setup).
    pub key_plane: Option<KeyPlaneConfig>,
}

impl SecurityConfig {
    /// The paper's configuration for `library`: AES-256-GCM, hardcoded
    /// key, random nonces.
    pub fn new(library: CryptoLibrary) -> Self {
        SecurityConfig {
            library,
            key_size: KeySize::Aes256,
            key: HARDCODED_KEY,
            nonce_policy: NoncePolicy::Random,
            pipeline: PipelineConfig::disabled(),
            faults: None,
            retransmit: None,
            key_plane: None,
        }
    }

    /// Does nothing: crypto is priced for the world's interconnect.
    #[deprecated = "crypto is priced for the world's interconnect; this is a no-op"]
    #[allow(deprecated)]
    pub fn with_timing(self, _mode: TimingMode) -> Self {
        self
    }

    /// Select the key size.
    pub fn with_key_size(mut self, key_size: KeySize) -> Self {
        self.key_size = key_size;
        self
    }

    /// Replace the shared key.
    pub fn with_key(mut self, key: [u8; 32]) -> Self {
        self.key = key;
        self
    }

    /// Configure the chunked crypto pipeline (see `empi_pipeline`).
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Install a seeded fault plan: sealed frames leaving this rank
    /// draw deterministic corruption/drop/duplication/jitter verdicts.
    pub fn with_faults(mut self, seed: u64, rates: FaultRates) -> Self {
        self.faults = Some(FaultConfig { seed, rates });
        self
    }

    /// Enable the NACK-driven retransmit layer with `max_retries`
    /// repair rounds, a base wait window of `timeout` (virtual time)
    /// and `buffer_msgs` sent messages retained for repair (at least
    /// one; [`RetransmitConfig::DEFAULT_BUFFER_MSGS`] unless a window
    /// needs more).
    pub fn with_retransmit(mut self, max_retries: u32, timeout: VDur, buffer_msgs: usize) -> Self {
        self.retransmit = Some(RetransmitConfig {
            max_retries,
            timeout,
            buffer_msgs: buffer_msgs.max(1),
        });
        self
    }

    /// Does nothing: every wire buffer comes from the world's pool.
    #[deprecated = "every wire buffer comes from the world's pool; this is a no-op"]
    pub fn with_buffer_pool(self, _pooled: bool) -> Self {
        self
    }

    /// Enable the in-band key lifecycle (see
    /// [`SecurityConfig::key_plane`]). Every rank of the world must
    /// carry the same [`KeyPlaneConfig`]: the handshake seed and
    /// rotation schedule shape the wire bytes.
    pub fn with_key_plane(mut self, key_plane: KeyPlaneConfig) -> Self {
        self.key_plane = Some(key_plane);
        self
    }

    /// Deterministic-nonce test mode: nonces come from a PRNG seeded
    /// with `seed` and the rank, so traced wire bytes reproduce
    /// run-to-run and no two ranks draw the same stream. Never for
    /// production — a known seed makes every nonce predictable.
    pub fn with_deterministic_nonces(mut self, seed: u64) -> Self {
        self.nonce_policy = NoncePolicy::Seeded { seed };
        self
    }

    /// The active key bytes.
    pub fn key_bytes(&self) -> &[u8] {
        &self.key[..self.key_size.bytes()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert_eq!(c.key_size, KeySize::Aes256);
        assert_eq!(c.key_bytes().len(), 32);
        assert_eq!(c.nonce_policy, NoncePolicy::Random);
    }

    #[test]
    fn calibrated_build_follows_interconnect() {
        assert_eq!(
            compiler_build(NetModel::ethernet_10g().name),
            CompilerBuild::Gcc485
        );
        assert_eq!(
            compiler_build(NetModel::infiniband_40g().name),
            CompilerBuild::Mvapich23
        );
        assert_eq!(
            compiler_build(NetModel::instant().name),
            CompilerBuild::Gcc485
        );
    }

    #[test]
    fn pipeline_and_seeded_nonce_builders() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(!c.pipeline.enabled, "pipelining must default off");
        let c = c
            .with_pipeline(
                PipelineConfig::enabled()
                    .with_chunk_size(1 << 15)
                    .with_workers(8),
            )
            .with_deterministic_nonces(1234);
        assert!(c.pipeline.enabled);
        assert_eq!(c.pipeline.chunk_size, 1 << 15);
        assert_eq!(c.pipeline.workers, 8);
        assert_eq!(c.nonce_policy, NoncePolicy::Seeded { seed: 1234 });
    }

    #[test]
    fn fault_and_retransmit_builders() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(
            c.faults.is_none() && c.retransmit.is_none(),
            "chaos off by default"
        );
        let c = c
            .with_faults(77, FaultRates::uniform(0.05))
            .with_retransmit(4, VDur::from_micros(200), 8);
        let f = c.faults.unwrap();
        assert_eq!(f.seed, 77);
        assert_eq!(f.rates.bit_flip, 0.05);
        let r = c.retransmit.unwrap();
        assert_eq!(r.max_retries, 4);
        assert_eq!(r.timeout, VDur::from_micros(200));
        assert_eq!(r.buffer_msgs, 8);
        // At least one message is retained.
        let one = SecurityConfig::new(CryptoLibrary::BoringSsl).with_retransmit(
            1,
            VDur::from_micros(1),
            0,
        );
        assert_eq!(one.retransmit.unwrap().buffer_msgs, 1);
    }

    #[test]
    #[allow(deprecated)]
    fn pool_builder_is_independent_of_pipeline_order() {
        // The pool is always on: the builder leaves the configuration
        // as it was, before or after the pipeline's.
        let debug = |c: SecurityConfig| format!("{c:?}");
        let want = debug(
            SecurityConfig::new(CryptoLibrary::BoringSsl).with_pipeline(PipelineConfig::enabled()),
        );
        for pooled in [false, true] {
            let first = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_buffer_pool(pooled)
                .with_pipeline(PipelineConfig::enabled());
            let second = SecurityConfig::new(CryptoLibrary::BoringSsl)
                .with_pipeline(PipelineConfig::enabled())
                .with_buffer_pool(pooled);
            assert_eq!(debug(first), want);
            assert_eq!(debug(second), want);
        }
    }

    #[test]
    fn key_plane_builder() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(c.key_plane.is_none(), "key plane off by default");
        let c = c.with_key_plane(KeyPlaneConfig::new(42).with_rotation(VDur::from_micros(500)));
        let kp = c.key_plane.unwrap();
        assert_eq!(kp.handshake_seed, 42);
        assert_eq!(kp.rotate_every, Some(VDur::from_micros(500)));
    }

    #[test]
    fn key_size_slices_key() {
        let c = SecurityConfig::new(CryptoLibrary::OpenSsl).with_key_size(KeySize::Aes128);
        assert_eq!(c.key_bytes().len(), 16);
    }
}
