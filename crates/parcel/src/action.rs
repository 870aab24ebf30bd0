//! Action registration and dispatch.
//!
//! An *action* is a function that may be invoked remotely (HPX's
//! `HPX_PLAIN_ACTION`). Actions are registered by name on every locality
//! — each hosted locality has its own registry, and the runtime mirrors
//! every registration into all of them in the same order — and addressed
//! on the wire by their dense [`ActionId`]. Handlers at this layer are
//! byte-level: argument decoding and result encoding are done by the typed
//! wrappers in the `rpx` core crate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rpx_net::DeliveryClass;
use rpx_serialize::WireError;
use rpx_util::SlotTable;

/// Dense identifier of a registered action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u32);

/// A byte-level action handler: decodes its arguments from the payload,
/// runs, and returns the encoded result.
pub type RawHandler = Arc<dyn Fn(Bytes) -> Result<Bytes, WireError> + Send + Sync>;

/// One registered action: its handler, and the delivery class and direct
/// flag the parcel port reads on every send and receive. Published as
/// one table entry, so a reader that finds the handler finds the class
/// and flag it was registered with.
struct Action {
    handler: RawHandler,
    class: DeliveryClass,
    /// Received parcels run inline on the pumping thread instead of
    /// becoming tasks (HPX "direct actions").
    direct: bool,
}

/// Registration-time metadata (cold; mutex-protected).
#[derive(Default)]
struct Meta {
    names: Vec<String>,
    by_name: HashMap<String, ActionId>,
}

/// The table of registered actions of one locality, shared by every
/// port that dispatches them.
///
/// `handler` and `is_direct` sit on the receive path of every parcel and
/// `class` on both the send and the receive path, so all three read one
/// lock-free [`SlotTable`] entry by reference — no lock and no refcount
/// traffic. Names and the by-name index are registration-time-only and
/// stay behind a mutex.
#[derive(Default)]
pub struct ActionRegistry {
    /// Indexed by `ActionId`; the only class and direct-flag table.
    actions: SlotTable<Action>,
    meta: Mutex<Meta>,
    count: AtomicUsize,
}

impl ActionRegistry {
    /// New empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register `handler` under `name` with the default
    /// [`DeliveryClass::Lossless`] contract, returning its id.
    ///
    /// # Panics
    /// Panics if the name is already registered — duplicate action names
    /// are a programming error, as in HPX.
    pub fn register(&self, name: &str, handler: RawHandler) -> ActionId {
        self.register_with_class(name, DeliveryClass::Lossless, handler)
    }

    /// Register `handler` under `name` with an explicit delivery class.
    ///
    /// The class is part of the registration contract: it participates
    /// in [`ActionRegistry::order_hash`], so ranks disagreeing on an
    /// action's class are detected at boot exactly like ranks
    /// disagreeing on registration order.
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn register_with_class(
        &self,
        name: &str,
        class: DeliveryClass,
        handler: RawHandler,
    ) -> ActionId {
        self.insert(name, class, false, handler)
    }

    /// Register a *direct* action: received parcels for it run inline on
    /// the pumping (background) thread instead of becoming tasks, on
    /// every port that dispatches through this registry. Only suitable
    /// for short, non-blocking handlers; direct actions are Lossless.
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn register_direct(&self, name: &str, handler: RawHandler) -> ActionId {
        self.insert(name, DeliveryClass::Lossless, true, handler)
    }

    fn insert(
        &self,
        name: &str,
        class: DeliveryClass,
        direct: bool,
        handler: RawHandler,
    ) -> ActionId {
        let mut meta = self.meta.lock();
        assert!(
            !meta.by_name.contains_key(name),
            "action '{name}' registered twice"
        );
        let id = ActionId(meta.names.len() as u32);
        meta.names.push(name.to_string());
        meta.by_name.insert(name.to_string(), id);
        let action = Action {
            handler,
            class,
            direct,
        };
        self.actions.set(id.0 as usize, Arc::new(action));
        self.count.fetch_add(1, Ordering::Release);
        id
    }

    /// Look up an action id by name.
    pub fn lookup(&self, name: &str) -> Option<ActionId> {
        self.meta.lock().by_name.get(name).copied()
    }

    /// The delivery class an action was registered under (lock-free; hot
    /// on the send and receive paths). Unregistered ids read as
    /// [`DeliveryClass::Lossless`], the default contract.
    #[inline]
    pub fn class(&self, id: ActionId) -> DeliveryClass {
        self.actions
            .get(id.0 as usize)
            .map_or(DeliveryClass::Lossless, |a| a.class)
    }

    /// Whether an action was registered direct (lock-free; hot on the
    /// receive path). Unregistered ids are not direct.
    #[inline]
    pub(crate) fn is_direct(&self, id: ActionId) -> bool {
        self.actions.get(id.0 as usize).is_some_and(|a| a.direct)
    }

    /// The name of an action.
    pub fn name(&self, id: ActionId) -> Option<String> {
        self.meta.lock().names.get(id.0 as usize).cloned()
    }

    /// The handler of an action (lock-free; hot on the receive path).
    #[inline]
    pub fn handler(&self, id: ActionId) -> Option<RawHandler> {
        self.actions
            .get(id.0 as usize)
            .map(|a| Arc::clone(&a.handler))
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// FNV-1a hash over the registered names *in registration order*,
    /// each folded with its delivery class.
    ///
    /// Action ids are dense registration indices, so two processes agree
    /// on every id if and only if their order hashes agree — this is the
    /// value ranks exchange at boot to detect registration skew before
    /// any parcel is dispatched against a wrong handler. Folding the
    /// class in extends that contract: ranks must also agree on each
    /// action's delivery class, or one side would drop/sequence traffic
    /// the other considers reliable.
    pub fn order_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let meta = self.meta.lock();
        let mut h = FNV_OFFSET;
        for (id, name) in meta.names.iter().enumerate() {
            let class = self.class(ActionId(id as u32));
            for b in name.as_bytes() {
                h = (h ^ *b as u64).wrapping_mul(FNV_PRIME);
            }
            // Separator so ["ab","c"] and ["a","bc"] differ.
            h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
            h = (h ^ class as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Whether no actions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpx_serialize::{from_bytes, to_bytes};

    fn echo_handler() -> RawHandler {
        Arc::new(Ok)
    }

    #[test]
    fn register_and_dispatch() {
        let reg = ActionRegistry::new();
        let id = reg.register(
            "double",
            Arc::new(|args| {
                let v: u64 = from_bytes(args)?;
                Ok(to_bytes(&(v * 2)))
            }),
        );
        assert_eq!(reg.lookup("double"), Some(id));
        assert_eq!(reg.name(id).as_deref(), Some("double"));
        let out = reg.handler(id).unwrap()(to_bytes(&21u64)).unwrap();
        assert_eq!(from_bytes::<u64>(out).unwrap(), 42);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let reg = ActionRegistry::new();
        let a = reg.register("a", echo_handler());
        let b = reg.register("b", echo_handler());
        assert_eq!(a, ActionId(0));
        assert_eq!(b, ActionId(1));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn order_hash_detects_registration_skew() {
        let a = ActionRegistry::new();
        a.register("toy::get", echo_handler());
        a.register("toy::put", echo_handler());
        let b = ActionRegistry::new();
        b.register("toy::get", echo_handler());
        b.register("toy::put", echo_handler());
        assert_eq!(a.order_hash(), b.order_hash(), "same order, same hash");

        let c = ActionRegistry::new();
        c.register("toy::put", echo_handler());
        c.register("toy::get", echo_handler());
        assert_ne!(a.order_hash(), c.order_hash(), "order matters");

        let d = ActionRegistry::new();
        d.register("toy::get", echo_handler());
        assert_ne!(a.order_hash(), d.order_hash(), "count matters");

        // Name-boundary ambiguity is broken by the separator byte.
        let e = ActionRegistry::new();
        e.register("ab", echo_handler());
        e.register("c", echo_handler());
        let f = ActionRegistry::new();
        f.register("a", echo_handler());
        f.register("bc", echo_handler());
        assert_ne!(e.order_hash(), f.order_hash());
    }

    #[test]
    fn class_is_recorded_and_defaults_to_lossless() {
        let reg = ActionRegistry::new();
        let a = reg.register("plain", echo_handler());
        let b = reg.register_with_class("be", DeliveryClass::BestEffort, echo_handler());
        let c = reg.register_with_class("co", DeliveryClass::Coalesce, echo_handler());
        assert_eq!(reg.class(a), DeliveryClass::Lossless);
        assert_eq!(reg.class(b), DeliveryClass::BestEffort);
        assert_eq!(reg.class(c), DeliveryClass::Coalesce);
        assert_eq!(reg.class(ActionId(9)), DeliveryClass::Lossless);
        let d = reg.register_direct("direct", echo_handler());
        assert!(reg.is_direct(d));
        assert_eq!(reg.class(d), DeliveryClass::Lossless);
        assert!(![a, b, c, ActionId(9)].iter().any(|&id| reg.is_direct(id)));
    }

    #[test]
    fn direct_flag_stays_out_of_the_order_hash() {
        // Direct is a local dispatch choice, not part of the wire
        // contract ranks must agree on: it leaves the hash unchanged.
        let a = ActionRegistry::new();
        a.register("app", echo_handler());
        a.register_direct("rpx::set-lco", echo_handler());
        let b = ActionRegistry::new();
        b.register("app", echo_handler());
        b.register("rpx::set-lco", echo_handler());
        assert_eq!(a.order_hash(), b.order_hash());
    }

    #[test]
    fn racing_readers_see_each_handler_with_its_own_class() {
        // Every handler answers with the class it was registered under;
        // readers racing the registrations must find that answer equal
        // to `class(id)` whenever the handler is visible at all.
        const N: u32 = 1_500;
        let classes = [
            DeliveryClass::Lossless,
            DeliveryClass::BestEffort,
            DeliveryClass::Coalesce,
        ];
        let reg = ActionRegistry::new();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (reg, done) = (Arc::clone(&reg), Arc::clone(&done));
                std::thread::spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        for id in (0..N).map(ActionId) {
                            if let Some(handler) = reg.handler(id) {
                                let tag = handler(Bytes::new()).unwrap();
                                assert_eq!(tag[0], reg.class(id) as u8, "{id:?}");
                            }
                        }
                    }
                })
            })
            .collect();
        for i in 0..N {
            let class = classes[i as usize % 3];
            let tag = Bytes::from(vec![class as u8]);
            reg.register_with_class(&format!("a{i}"), class, Arc::new(move |_| Ok(tag.clone())));
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn order_hash_detects_class_skew() {
        let a = ActionRegistry::new();
        a.register_with_class("sync", DeliveryClass::Coalesce, echo_handler());
        let b = ActionRegistry::new();
        b.register_with_class("sync", DeliveryClass::Coalesce, echo_handler());
        assert_eq!(a.order_hash(), b.order_hash(), "same class, same hash");

        let c = ActionRegistry::new();
        c.register("sync", echo_handler());
        assert_ne!(a.order_hash(), c.order_hash(), "class matters");
    }

    #[test]
    fn unknown_lookups_return_none() {
        let reg = ActionRegistry::new();
        assert_eq!(reg.lookup("missing"), None);
        assert!(reg.name(ActionId(5)).is_none());
        assert!(reg.handler(ActionId(5)).is_none());
        assert!(reg.is_empty());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let reg = ActionRegistry::new();
        reg.register("x", echo_handler());
        reg.register("x", echo_handler());
    }

    #[test]
    fn handler_errors_propagate() {
        let reg = ActionRegistry::new();
        let id = reg.register(
            "needs_u64",
            Arc::new(|args| {
                let v: u64 = from_bytes(args)?;
                Ok(to_bytes(&v))
            }),
        );
        let err = reg.handler(id).unwrap()(Bytes::new());
        assert!(err.is_err());
    }
}
