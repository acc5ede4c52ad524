//! One thread serving every child gmetad's rendered dump to the root.
//!
//! It waits on all the children's listeners at once with `poll(2)` and
//! answers one connection at a time, writing the shared dump straight
//! from its `Arc<String>`: no thread per connection and no copy of the
//! document. The protocol is the gmetad wire protocol the root's
//! `TcpTransport` speaks: read one request line, write the document,
//! close.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use ganglia_net::Addr;

/// A document slot the benchmark swaps between rounds.
pub type Slot = Arc<RwLock<Arc<String>>>;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 1;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct DumpServer {
    addrs: Vec<Addr>,
    stop: Arc<AtomicBool>,
    wake: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl DumpServer {
    /// Bind one loopback port per slot and start serving.
    pub fn start(slots: Vec<Slot>) -> DumpServer {
        let bind = || TcpListener::bind("127.0.0.1:0").expect("bind dump port");
        let listeners: Vec<TcpListener> = slots.iter().map(|_| bind()).collect();
        // An extra listener whose only job is to wake the thread on stop.
        let waker = bind();
        let addrs = listeners
            .iter()
            .map(|l| Addr::new(l.local_addr().expect("bound").to_string()))
            .collect();
        let wake = waker.local_addr().expect("bound");
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut fds: Vec<PollFd> = listeners
                .iter()
                .chain([&waker])
                .map(|l| PollFd {
                    fd: l.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                })
                .collect();
            loop {
                // SAFETY: `fds` is a live, correctly laid out pollfd array
                // whose descriptors outlive the call.
                let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, -1) };
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
                if ready < 0 {
                    continue; // EINTR
                }
                for (i, fd) in fds.iter_mut().enumerate() {
                    if std::mem::take(&mut fd.revents) & POLLIN == 0 || i == slots.len() {
                        continue;
                    }
                    if let Ok((stream, _)) = listeners[i].accept() {
                        let doc = Arc::clone(&slots[i].read().unwrap_or_else(|e| e.into_inner()));
                        serve_one(stream, &doc);
                    }
                }
            }
        });
        DumpServer {
            addrs,
            stop,
            wake,
            thread: Some(thread),
        }
    }

    /// The address serving slot `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.addrs[i].clone()
    }
}

fn serve_one(stream: TcpStream, doc: &str) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    if reader.read_line(&mut request).is_ok() {
        let _ = reader.get_mut().write_all(doc.as_bytes());
    }
}

impl Drop for DumpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
