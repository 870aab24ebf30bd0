//! Action registration and dispatch.
//!
//! An *action* is a function that may be invoked remotely (HPX's
//! `HPX_PLAIN_ACTION`). Actions are registered by name on every locality
//! (in our in-process cluster, once in a shared registry) and addressed on
//! the wire by their dense [`ActionId`]. Handlers at this layer are
//! byte-level: argument decoding and result encoding are done by the typed
//! wrappers in the `rpx` core crate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rpx_net::DeliveryClass;
use rpx_serialize::WireError;
use rpx_util::{BitTable, SlotTable};

/// Dense identifier of a registered action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u32);

/// A byte-level action handler: decodes its arguments from the payload,
/// runs, and returns the encoded result.
pub type RawHandler = Arc<dyn Fn(Bytes) -> Result<Bytes, WireError> + Send + Sync>;

/// Registration-time metadata (cold; mutex-protected).
#[derive(Default)]
struct Meta {
    names: Vec<String>,
    by_name: HashMap<String, ActionId>,
}

/// The table of registered actions, shared by all localities.
///
/// `handler` sits on the receive path of every parcel and `class` on
/// both the send and the receive path, so both read lock-free tables;
/// names and the by-name index are registration-time-only and stay
/// behind a mutex.
#[derive(Default)]
pub struct ActionRegistry {
    handlers: SlotTable<dyn Fn(Bytes) -> Result<Bytes, WireError> + Send + Sync>,
    /// The delivery-class table — the only one: two bits per action at
    /// `2 * id`. Bit 0 set means "not Lossless", so the common Lossless
    /// read is a single bit test; bit 1 then tells Coalesce from
    /// BestEffort.
    classes: BitTable,
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
        let mut meta = self.meta.lock();
        assert!(
            !meta.by_name.contains_key(name),
            "action '{name}' registered twice"
        );
        let id = ActionId(meta.names.len() as u32);
        meta.names.push(name.to_string());
        meta.by_name.insert(name.to_string(), id);
        // Class bits land before the handler is published, so whoever can
        // dispatch the action also reads its final class.
        let bit = id.0 as usize * 2;
        match class {
            DeliveryClass::Lossless => {}
            DeliveryClass::BestEffort => self.classes.set(bit),
            DeliveryClass::Coalesce => {
                // Distinguishing bit first: no reader sees BestEffort.
                self.classes.set(bit + 1);
                self.classes.set(bit);
            }
        }
        self.handlers.set(id.0 as usize, handler);
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
        let bit = id.0 as usize * 2;
        if !self.classes.test(bit) {
            DeliveryClass::Lossless
        } else if self.classes.test(bit + 1) {
            DeliveryClass::Coalesce
        } else {
            DeliveryClass::BestEffort
        }
    }

    /// The name of an action.
    pub fn name(&self, id: ActionId) -> Option<String> {
        self.meta.lock().names.get(id.0 as usize).cloned()
    }

    /// The handler of an action (lock-free; hot on the receive path).
    #[inline]
    pub fn handler(&self, id: ActionId) -> Option<RawHandler> {
        self.handlers.get(id.0 as usize)
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
