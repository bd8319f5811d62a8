//! The final read-back the soak and fault-campaign runners end with:
//! every surviving page is compared byte-exactly with the oracle,
//! checked against the rejected-write ledger and folded into an
//! FNV-style CRC digest, the bit-identity probe of same-seed reruns.

use nvdimmc_core::{
    ChannelShard, CoreError, ExecutorConfig, GlobalOp, MultiChannelSystem, ShardExecutor,
    PAGE_BYTES,
};
use nvdimmc_nand::ecc::crc32;
use std::collections::BTreeMap;

/// Starting value of a read-back digest (the FNV-1a offset basis).
pub(crate) const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Tallies of one read-back, judged against the run's oracle and its
/// ledger of refused writes.
pub(crate) struct ReadBack<'a> {
    oracle: &'a [Vec<u8>],
    /// CRC of the last refused payload per page, still ledgered.
    rejected: &'a BTreeMap<u64, u32>,
    /// Pages left out of the read-back.
    pub excluded: u64,
    /// Pages whose contents differ from the oracle.
    pub mismatches: u64,
    /// Pages whose contents match a refused payload.
    pub leaks: u64,
    /// Digest of every judged page's CRC, in page order.
    pub digest: u64,
}

impl<'a> ReadBack<'a> {
    pub(crate) fn new(oracle: &'a [Vec<u8>], rejected: &'a BTreeMap<u64, u32>) -> Self {
        ReadBack {
            oracle,
            rejected,
            excluded: 0,
            mismatches: 0,
            leaks: 0,
            digest: DIGEST_SEED,
        }
    }

    /// Judges `page`, read back as `got`.
    pub(crate) fn judge(&mut self, page: u64, got: &[u8]) {
        let crc = crc32(got);
        if got != self.oracle[page as usize] {
            self.mismatches += 1;
        }
        if self.rejected.get(&page) == Some(&crc) {
            self.leaks += 1;
        }
        self.digest = self
            .digest
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(u64::from(crc));
    }

    /// Reads back and judges every page of `0..pages` that `skip` does
    /// not exclude, batched through a [`ShardExecutor`]: the reads are
    /// issued at the front end's current instant onto the per-shard
    /// rings (adjacent pages coalesce into joint DMAs on one channel), a
    /// full ring is served before the page is resubmitted, and the
    /// payloads are judged in page order, so the digest is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// The first device error any read surfaces.
    pub(crate) fn sweep(
        &mut self,
        sys: &mut MultiChannelSystem,
        pages: u64,
        skip: impl Fn(u64) -> bool,
    ) -> Result<(), CoreError> {
        let mut exec = ShardExecutor::new(sys.channels() as usize, ExecutorConfig::default());
        let mut got: Vec<Option<Vec<u8>>> = vec![None; pages as usize];
        let (shards, map, t0) = sys.parts_mut();
        for page in (0..pages).filter(|&p| !skip(p)) {
            // The thread id carries the page back on the completion.
            let op = GlobalOp::read(page as u32, page * PAGE_BYTES, PAGE_BYTES, t0);
            loop {
                match exec.submit(map, op) {
                    Ok(_) => break,
                    Err(CoreError::Overloaded { .. }) => collect(&mut exec, shards, &mut got)?,
                    Err(e) => return Err(e),
                }
            }
        }
        collect(&mut exec, shards, &mut got)?;
        for page in 0..pages {
            if skip(page) {
                self.excluded += 1;
                continue;
            }
            let data = got[page as usize]
                .take()
                .ok_or_else(|| CoreError::Config("verification sweep lost a completion".into()))?;
            self.judge(page, &data);
        }
        Ok(())
    }
}

/// Serves everything queued and files each payload under its page.
fn collect(
    exec: &mut ShardExecutor,
    shards: &mut [ChannelShard],
    got: &mut [Option<Vec<u8>>],
) -> Result<(), CoreError> {
    for c in exec.dispatch(shards) {
        if let Some(e) = c.error {
            return Err(e);
        }
        got[c.thread as usize] = Some(c.data);
    }
    Ok(())
}
