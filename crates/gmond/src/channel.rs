//! The metric channel abstraction: how an agent's packets reach its
//! neighbors.
//!
//! Gmond is channel-agnostic by design — multicast where the network
//! allows it, unicast mesh where it does not. Both carry the same XDR
//! packets and both are lossy, which is why everything above them is
//! soft state.

use std::sync::Arc;

use crate::udp::UdpMesh;
use ganglia_net::McastSubscription;

/// A best-effort, lossy packet channel.
pub trait MetricChannel: Send {
    /// Send to every neighbor. Best-effort: delivery failures are the
    /// soft-state layer's problem, not the sender's.
    fn publish(&mut self, payload: Arc<[u8]>);

    /// Receive the next pending packet, if any.
    fn poll(&mut self) -> Option<Arc<[u8]>>;
}

impl MetricChannel for McastSubscription {
    fn publish(&mut self, payload: Arc<[u8]>) {
        McastSubscription::publish(self, payload);
    }

    fn poll(&mut self) -> Option<Arc<[u8]>> {
        McastSubscription::poll(self)
    }
}

impl MetricChannel for UdpMesh {
    fn publish(&mut self, payload: Arc<[u8]>) {
        // UDP is fire-and-forget; socket-level errors are dropped like
        // any other lost datagram.
        let _ = UdpMesh::publish(self, &payload);
    }

    fn poll(&mut self) -> Option<Arc<[u8]>> {
        UdpMesh::poll(self).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganglia_net::McastBus;

    #[test]
    fn mcast_subscription_implements_the_trait() {
        let bus = McastBus::new(1);
        let mut a: Box<dyn MetricChannel> = Box::new(bus.subscribe());
        let mut b: Box<dyn MetricChannel> = Box::new(bus.subscribe());
        a.publish(Arc::from(&b"x"[..]));
        assert_eq!(b.poll().as_deref(), Some(b"x".as_ref()));
        assert_eq!(a.poll(), None);
    }

    #[test]
    fn udp_mesh_implements_the_trait() {
        let mut a = UdpMesh::bind("127.0.0.1:0").unwrap();
        let b = UdpMesh::bind("127.0.0.1:0").unwrap();
        a.add_peer(b.local_addr().unwrap());
        let mut a: Box<dyn MetricChannel> = Box::new(a);
        let mut b: Box<dyn MetricChannel> = Box::new(b);
        a.publish(Arc::from(&b"y"[..]));
        // Non-blocking receive: spin briefly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if let Some(got) = b.poll() {
                assert_eq!(&got[..], b"y");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "datagram lost");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}
