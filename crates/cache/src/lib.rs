//! Near-compute sample cache for selective preprocessing offloading.
//!
//! SOPHON's decision engine trades storage-side CPU for network traffic;
//! this crate adds the third resource: **compute-side memory**. A
//! [`SampleCache`] pins a budgeted subset of sample representations next
//! to the trainer so warm epochs skip their fetches entirely, and a
//! [`CachingTransport`] splices that cache into the existing transport
//! stack transparently.
//!
//! The crate's one inviolable rule is *epoch stability*: augmentation
//! randomness is keyed by `(dataset seed, sample, epoch)`, so only
//! intermediates from the pipeline's deterministic prefix — encoded bytes
//! and post-decode rasters, for the standard training pipeline — are ever
//! cacheable. Anything downstream of a randomized op differs per epoch,
//! and replaying it would silently pin one epoch's augmentations forever.
//! The rule is enforced in the type layer by [`StableSplit`]: a
//! [`CacheKey`] cannot be constructed for an unstable split, which is also
//! why the key needs no epoch field.
//!
//! What to keep under the budget is a [`CachePolicy`]: classic
//! [`LruPolicy`], traffic-greedy [`SizeAwarePolicy`], or
//! [`EfficiencyAwarePolicy`], which ranks entries the same way the
//! decision engine ranks offload candidates. The planner side — choosing
//! cache contents from profiles and re-planning the residual set — lives
//! in `sophon::ext::caching`.

#![forbid(unsafe_code)]

pub mod key;
pub mod policy;
pub mod store;
pub mod transport;

pub use key::{CacheError, CacheKey, StableSplit};
pub use policy::{CachePolicy, EfficiencyAwarePolicy, EntryMeta, LruPolicy, SizeAwarePolicy};
pub use store::{AdmissionHint, CacheStats, SampleCache};
pub use transport::CachingTransport;
