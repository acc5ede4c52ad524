//! Real UDP packet exchange for gmond agents.
//!
//! Gmon's native channel is IP multicast, but real deployments on
//! multicast-hostile networks run gmond in *unicast mesh* mode: every
//! agent sends its metric datagrams to an explicit peer list. This
//! module implements that mode over `std::net::UdpSocket` — one socket
//! per agent, non-blocking receive — so a cluster of
//! [`crate::GmondAgent`]s can run across real machines.
//!
//! Datagram payloads are the same XDR packets the simulated bus carries
//! ([`crate::packet::MetricPacket`]); undecodable datagrams are dropped
//! exactly as a UDP listener must.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::Arc;

/// Maximum datagram we accept (a metric packet is well under this).
const MAX_DATAGRAM: usize = 1500;

/// One agent's endpoint in a unicast mesh.
#[derive(Debug)]
pub struct UdpMesh {
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    /// Datagrams sent/received (traffic accounting).
    sent: u64,
    received: u64,
}

impl UdpMesh {
    /// Bind a mesh endpoint. `bind` may use port 0 for an ephemeral
    /// port; peers can be added later as the mesh assembles.
    pub fn bind(bind: impl ToSocketAddrs) -> io::Result<UdpMesh> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_nonblocking(true)?;
        Ok(UdpMesh {
            socket,
            peers: Vec::new(),
            sent: 0,
            received: 0,
        })
    }

    /// The bound local address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Add a peer to send to. Adding our own address is allowed and
    /// ignored at send time (agents apply their own packets locally).
    pub fn add_peer(&mut self, peer: SocketAddr) {
        if !self.peers.contains(&peer) {
            self.peers.push(peer);
        }
    }

    /// Current peer list.
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// Send one packet to every peer. Partial failure is fine — UDP
    /// gives no guarantee anyway — but local socket errors other than
    /// would-block are reported.
    pub fn publish(&mut self, payload: &[u8]) -> io::Result<usize> {
        let own = self.socket.local_addr().ok();
        let mut delivered = 0;
        for peer in &self.peers {
            if own == Some(*peer) {
                continue;
            }
            match self.socket.send_to(payload, peer) {
                Ok(_) => {
                    delivered += 1;
                    self.sent += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(delivered)
    }

    /// Receive one pending datagram, if any.
    pub fn poll(&mut self) -> io::Result<Option<Arc<[u8]>>> {
        let mut buf = [0u8; MAX_DATAGRAM];
        match self.socket.recv_from(&mut buf) {
            Ok((len, _peer)) => {
                self.received += 1;
                Ok(Some(Arc::from(&buf[..len])))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Drain everything pending.
    pub fn drain(&mut self) -> io::Result<Vec<Arc<[u8]>>> {
        let mut out = Vec::new();
        while let Some(datagram) = self.poll()? {
            out.push(datagram);
        }
        Ok(out)
    }

    /// `(sent, received)` datagram counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.sent, self.received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::MetricPacket;
    use ganglia_metrics::{MetricValue, Slope};
    use std::time::{Duration, Instant};

    fn wait_for<T>(mut f: impl FnMut() -> io::Result<Option<T>>) -> Option<T> {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if let Some(v) = f().expect("socket io") {
                return Some(v);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }

    fn mesh() -> UdpMesh {
        UdpMesh::bind("127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn datagrams_flow_between_mesh_members() {
        let mut a = mesh();
        let mut b = mesh();
        let mut c = mesh();
        let addrs = [
            a.local_addr().unwrap(),
            b.local_addr().unwrap(),
            c.local_addr().unwrap(),
        ];
        for m in [&mut a, &mut b, &mut c] {
            for addr in addrs {
                m.add_peer(addr);
            }
        }
        let delivered = a.publish(b"metric").unwrap();
        assert_eq!(delivered, 2, "self excluded from the mesh send");
        assert_eq!(wait_for(|| b.poll()).as_deref(), Some(b"metric".as_ref()));
        assert_eq!(wait_for(|| c.poll()).as_deref(), Some(b"metric".as_ref()));
        assert_eq!(a.counters().0, 2);
    }

    #[test]
    fn metric_packets_survive_the_wire() {
        let mut a = mesh();
        let mut b = mesh();
        a.add_peer(b.local_addr().unwrap());
        let packet = MetricPacket {
            host: "n0".into(),
            ip: "10.0.0.1".into(),
            gmond_started: 100,
            name: "load_one".into(),
            value: MetricValue::Float(0.75),
            units: String::new(),
            slope: Slope::Both,
            tmax: 70,
            dmax: 0,
        };
        a.publish(&packet.encode()).unwrap();
        let raw = wait_for(|| b.poll()).expect("datagram arrives");
        assert_eq!(MetricPacket::decode(&raw).unwrap(), packet);
    }

    #[test]
    fn duplicate_peers_are_deduplicated() {
        let mut a = mesh();
        let peer = "127.0.0.1:9".parse().unwrap();
        a.add_peer(peer);
        a.add_peer(peer);
        assert_eq!(a.peers().len(), 1);
    }

    #[test]
    fn poll_on_quiet_socket_is_none() {
        let mut a = mesh();
        assert!(a.poll().unwrap().is_none());
        assert!(a.drain().unwrap().is_empty());
    }
}
