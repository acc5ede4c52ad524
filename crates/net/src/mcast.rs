//! The simulated local-area multicast channel.
//!
//! "Gmon uses UDP multicast to exchange these metrics within the cluster.
//! The local-area multicast backbone enables gmon agents to organize into
//! a redundant, leaderless network where nodes listen to their neighbors
//! rather than polling them" (paper §1). The bus below gives every
//! subscriber its own inbox; a publish fans out to every *other*
//! subscriber, with optional deterministic packet loss (UDP gives no
//! delivery guarantee, which is exactly why gmond uses soft state).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::rng::SplitMix64;

struct Inbox {
    id: u64,
    queue: VecDeque<Arc<[u8]>>,
}

struct BusState {
    inboxes: Vec<Inbox>,
    next_id: u64,
    loss_probability: f64,
    rng: SplitMix64,
    published: u64,
    delivered: u64,
}

/// A simulated multicast channel.
pub struct McastBus {
    state: Mutex<BusState>,
}

impl McastBus {
    /// A lossless bus.
    pub fn new(seed: u64) -> Arc<McastBus> {
        Arc::new(McastBus {
            state: Mutex::new(BusState {
                inboxes: Vec::new(),
                next_id: 0,
                loss_probability: 0.0,
                rng: SplitMix64::new(seed),
                published: 0,
                delivered: 0,
            }),
        })
    }

    /// Set the probability that any single delivery is lost.
    pub fn set_loss(&self, probability: f64) {
        self.state.lock().loss_probability = probability;
    }

    /// Join the channel.
    pub fn subscribe(self: &Arc<Self>) -> McastSubscription {
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.inboxes.push(Inbox {
            id,
            queue: VecDeque::new(),
        });
        McastSubscription {
            bus: Arc::clone(self),
            id,
        }
    }

    /// Number of current subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.state.lock().inboxes.len()
    }

    /// Total packets published / deliveries made (for loss assertions).
    pub fn counters(&self) -> (u64, u64) {
        let state = self.state.lock();
        (state.published, state.delivered)
    }

    fn publish_from(&self, sender: u64, payload: &Arc<[u8]>) {
        let mut state = self.state.lock();
        state.published += 1;
        let loss = state.loss_probability;
        // Split the borrow: decide drops first, then enqueue.
        let mut deliveries = 0u64;
        let n = state.inboxes.len();
        let drops: Vec<bool> = (0..n)
            .map(|_| loss > 0.0 && state.rng.chance(loss))
            .collect();
        for (inbox, dropped) in state.inboxes.iter_mut().zip(drops) {
            if inbox.id == sender || dropped {
                continue;
            }
            inbox.queue.push_back(Arc::clone(payload));
            deliveries += 1;
        }
        state.delivered += deliveries;
    }

    fn poll_for(&self, id: u64) -> Option<Arc<[u8]>> {
        let mut state = self.state.lock();
        state
            .inboxes
            .iter_mut()
            .find(|i| i.id == id)
            .and_then(|i| i.queue.pop_front())
    }

    fn unsubscribe(&self, id: u64) {
        self.state.lock().inboxes.retain(|i| i.id != id);
    }
}

/// Membership in a multicast channel; leaves the channel on drop.
pub struct McastSubscription {
    bus: Arc<McastBus>,
    id: u64,
}

impl McastSubscription {
    /// Send a packet to every other subscriber.
    pub fn publish(&self, payload: Arc<[u8]>) {
        self.bus.publish_from(self.id, &payload);
    }

    /// Receive the next queued packet, if any.
    pub fn poll(&self) -> Option<Arc<[u8]>> {
        self.bus.poll_for(self.id)
    }

    /// Receive everything queued.
    pub fn drain(&self) -> Vec<Arc<[u8]>> {
        let mut out = Vec::new();
        while let Some(pkt) = self.poll() {
            out.push(pkt);
        }
        out
    }

    /// This subscriber's channel-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for McastSubscription {
    fn drop(&mut self) {
        self.bus.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    #[test]
    fn publish_reaches_all_other_subscribers() {
        let bus = McastBus::new(1);
        let a = bus.subscribe();
        let b = bus.subscribe();
        let c = bus.subscribe();
        a.publish(payload(b"hello"));
        assert_eq!(a.poll(), None, "sender must not hear itself");
        assert_eq!(b.poll().unwrap(), payload(b"hello"));
        assert_eq!(c.poll().unwrap(), payload(b"hello"));
        assert_eq!(bus.counters(), (1, 2));
    }

    #[test]
    fn packets_queue_in_order() {
        let bus = McastBus::new(1);
        let a = bus.subscribe();
        let b = bus.subscribe();
        a.publish(payload(b"1"));
        a.publish(payload(b"2"));
        let got = b.drain();
        assert_eq!(got, vec![payload(b"1"), payload(b"2")]);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn unsubscribe_on_drop() {
        let bus = McastBus::new(1);
        let a = bus.subscribe();
        {
            let _b = bus.subscribe();
            assert_eq!(bus.subscriber_count(), 2);
        }
        assert_eq!(bus.subscriber_count(), 1);
        a.publish(payload(b"x"));
        assert_eq!(bus.counters().1, 0, "no deliveries after unsubscribe");
    }

    #[test]
    fn loss_drops_a_fraction() {
        let bus = McastBus::new(42);
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.set_loss(0.5);
        for _ in 0..1000 {
            a.publish(payload(b"p"));
        }
        let received = b.drain().len();
        assert!((350..650).contains(&received), "received {received}");
        let (published, delivered) = bus.counters();
        assert_eq!(published, 1000);
        assert_eq!(delivered as usize, received);
    }

    #[test]
    fn ids_are_unique() {
        let bus = McastBus::new(1);
        let a = bus.subscribe();
        let b = bus.subscribe();
        assert_ne!(a.id(), b.id());
    }
}
