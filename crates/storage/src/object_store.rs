use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

/// An in-memory object store mapping sample ids to encoded bytes.
///
/// Mirrors the paper's setup where the dataset subset is cached in the
/// storage node's RAM so intra-node read bandwidth vastly exceeds the
/// inter-node link.
///
/// A clone shares the map: the serving path clones a store into every
/// session, so a clone costs one reference count however many objects the
/// store holds. [`ObjectStore::insert`] copies the map first when a clone
/// still shares it, leaving that clone as it was.
///
/// Each object is checksummed once, when the store takes it. A raw serve's
/// frame CRC is combined from that CRC and the frame head's (see
/// [`crate::NearStorageExecutor::execute`]), so serving an object never
/// reads its bytes.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    objects: Arc<HashMap<u64, StoredObject>>,
    total_bytes: u64,
}

/// One stored object, with the CRC32 of the payload a raw serve sends.
#[derive(Debug, Clone)]
pub(crate) struct StoredObject {
    pub(crate) bytes: Bytes,
    /// CRC32 of `bytes`.
    pub(crate) crc: u32,
}

impl StoredObject {
    fn new(bytes: Bytes) -> StoredObject {
        StoredObject { crc: checksum::crc32(&bytes), bytes }
    }
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> ObjectStore {
        ObjectStore::default()
    }

    /// Builds a store from `(id, bytes)` pairs.
    pub fn from_objects<I>(objects: I) -> ObjectStore
    where
        I: IntoIterator<Item = (u64, Bytes)>,
    {
        let mut store = ObjectStore::new();
        for (id, bytes) in objects {
            store.insert(id, bytes);
        }
        store
    }

    /// Materializes the given id range of a dataset through the real codec.
    ///
    /// Rendering and encoding a mini-corpus sample takes ≈ 15 ms of one
    /// core (2 vCPU Xeon guest), so the ids are spread over one scoped
    /// thread per core ([`std::thread::available_parallelism`]); a single
    /// id runs on the calling thread. The stored bytes are those of
    /// [`datasets::DatasetSpec::materialize`], whatever the thread count.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the dataset length.
    pub fn materialize_dataset(ds: &datasets::DatasetSpec, ids: Range<u64>) -> ObjectStore {
        // On the calling thread, so an out-of-range id panics with the
        // dataset's own message rather than as a failed worker.
        if let Some(last) = ids.clone().next_back() {
            ds.record(last);
        }
        // `Bytes` takes an encoder's vector over as it is, spare capacity
        // included; the store keeps every object for its whole life, so the
        // spare is given back first.
        let stored = |id| {
            let mut object = ds.materialize(id);
            object.shrink_to_fit();
            (id, Bytes::from(object))
        };
        let count = ids.end.saturating_sub(ids.start);
        let threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(usize::try_from(count).unwrap_or(usize::MAX));
        if threads <= 1 {
            return Self::from_objects(ids.map(stored));
        }
        // The counter only hands out ids; results come back through `join`.
        let next = AtomicU64::new(ids.start);
        let mut objects: Vec<(u64, Bytes)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let id = next.fetch_add(1, Ordering::Relaxed);
                            if id >= ids.end {
                                return done;
                            }
                            done.push(stored(id));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        objects.sort_unstable_by_key(|&(id, _)| id);
        Self::from_objects(objects)
    }

    /// Inserts (or replaces) an object; returns the previous bytes, if any.
    pub fn insert(&mut self, id: u64, bytes: Bytes) -> Option<Bytes> {
        self.total_bytes += bytes.len() as u64;
        let prev =
            Arc::make_mut(&mut self.objects).insert(id, StoredObject::new(bytes)).map(|p| p.bytes);
        if let Some(p) = &prev {
            self.total_bytes -= p.len() as u64;
        }
        prev
    }

    /// Fetches an object's bytes (cheaply cloned, shared buffer).
    pub fn get(&self, id: u64) -> Option<Bytes> {
        self.objects.get(&id).map(|o| o.bytes.clone())
    }

    /// An object with its checksums.
    pub(crate) fn object(&self, id: u64) -> Option<&StoredObject> {
        self.objects.get(&id)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Iterates `(id, bytes)` pairs (arbitrary order; bytes are cheaply
    /// cloned shared buffers).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Bytes)> + '_ {
        self.objects.iter().map(|(&id, o)| (id, o.bytes.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut s = ObjectStore::new();
        assert!(s.is_empty());
        s.insert(7, Bytes::from_static(b"abc"));
        assert_eq!(s.get(7).unwrap(), Bytes::from_static(b"abc"));
        assert!(s.get(8).is_none());
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 3);
    }

    #[test]
    fn replace_updates_accounting() {
        let mut s = ObjectStore::new();
        s.insert(1, Bytes::from_static(b"aaaa"));
        let prev = s.insert(1, Bytes::from_static(b"bb"));
        assert_eq!(prev.unwrap(), Bytes::from_static(b"aaaa"));
        assert_eq!(s.total_bytes(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn materialize_dataset_stores_decodable_objects() {
        let ds = datasets::DatasetSpec::mini(4, 3);
        let store = ObjectStore::materialize_dataset(&ds, 0..4);
        assert_eq!(store.len(), 4);
        for id in 0..4 {
            let bytes = store.get(id).unwrap();
            assert!(codec::decode(&bytes).is_ok(), "object {id} must decode");
        }
        assert!(store.total_bytes() > 0);
    }

    #[test]
    fn clone_shares_storage_and_insert_copies_on_write() {
        let mut s = ObjectStore::new();
        s.insert(1, Bytes::from_static(b"aaaa"));
        let snapshot = s.clone();
        assert!(Arc::ptr_eq(&s.objects, &snapshot.objects), "a clone shares the map");

        s.insert(1, Bytes::from_static(b"bb"));
        s.insert(2, Bytes::from_static(b"c"));
        assert!(!Arc::ptr_eq(&s.objects, &snapshot.objects));
        assert_eq!(snapshot.get(1).unwrap(), Bytes::from_static(b"aaaa"));
        assert!(snapshot.get(2).is_none());
        assert_eq!((snapshot.len(), snapshot.total_bytes()), (1, 4));
        assert_eq!(s.get(1).unwrap(), Bytes::from_static(b"bb"));
        assert_eq!((s.len(), s.total_bytes()), (2, 3));
    }

    #[test]
    fn every_servable_payload_is_checksummed_when_stored() {
        let ds = datasets::DatasetSpec::mini(2, 3);
        let mut store = ObjectStore::materialize_dataset(&ds, 0..2);
        store.insert(2, Bytes::from_static(b"not a stream"));
        for id in 0..3 {
            let object = store.object(id).unwrap();
            assert_eq!(object.crc, checksum::crc32(&object.bytes), "object {id}");
        }
    }
}
