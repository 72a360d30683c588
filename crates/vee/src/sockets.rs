//! Sockets.
//!
//! The revive path treats sockets by protocol (§5.2): external stateful
//! (TCP) connections are reset — "the user does not expect external
//! network connections to remain valid" — internal (localhost)
//! connections stay intact, and stateless (UDP) sockets restore exactly.

use std::collections::HashMap;

/// Transport protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    /// Stateful, connection-oriented.
    Tcp,
    /// Stateless datagrams.
    Udp,
}

/// Connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockState {
    /// Created, not connected.
    Unconnected,
    /// Connected to the remote.
    Connected,
    /// Reset by revive (appears to the app as a dropped connection).
    Reset,
}

/// One socket.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Socket {
    /// Socket id within the VEE.
    pub id: u64,
    /// Protocol.
    pub proto: Proto,
    /// Local port.
    pub local_port: u16,
    /// Remote endpoint `(host, port)`, if connected.
    pub remote: Option<(String, u16)>,
    /// Connection state.
    pub state: SockState,
    /// Bytes sent (synthetic traffic accounting).
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
}

impl Socket {
    /// Returns whether the remote endpoint is outside the session.
    #[cfg(test)]
    fn is_external(&self) -> bool {
        match &self.remote {
            Some((host, _)) => host != "localhost" && host != "127.0.0.1",
            None => false,
        }
    }
}

/// The VEE's socket table.
#[derive(Clone, Debug, Default)]
pub struct SocketTable {
    sockets: HashMap<u64, Socket>,
    next_id: u64,
    next_port: u16,
}

impl SocketTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SocketTable {
            sockets: HashMap::new(),
            next_id: 1,
            next_port: 32768,
        }
    }

    /// Creates a socket, returning its id.
    pub fn create(&mut self, proto: Proto) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let port = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        self.sockets.insert(
            id,
            Socket {
                id,
                proto,
                local_port: port,
                remote: None,
                state: SockState::Unconnected,
                tx_bytes: 0,
                rx_bytes: 0,
            },
        );
        id
    }

    /// Installs a socket during restore.
    pub fn install(&mut self, socket: Socket) {
        self.next_id = self.next_id.max(socket.id + 1);
        self.sockets.insert(socket.id, socket);
    }

    /// Looks up a socket mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Socket> {
        self.sockets.get_mut(&id)
    }

    /// Removes a socket.
    pub fn remove(&mut self, id: u64) -> Option<Socket> {
        self.sockets.remove(&id)
    }

    /// Iterates all sockets in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Socket> {
        let mut all: Vec<&Socket> = self.sockets.values().collect();
        all.sort_by_key(|s| s.id);
        all.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_connect() {
        let mut table = SocketTable::new();
        let id = table.create(Proto::Tcp);
        let sock = table.get_mut(id).unwrap();
        sock.remote = Some(("example.com".into(), 80));
        sock.state = SockState::Connected;
        assert!(table.sockets.get(&id).unwrap().is_external());
    }

    #[test]
    fn localhost_is_internal() {
        let mut table = SocketTable::new();
        let id = table.create(Proto::Tcp);
        table.get_mut(id).unwrap().remote = Some(("localhost".into(), 5432));
        assert!(!table.sockets.get(&id).unwrap().is_external());
        let id2 = table.create(Proto::Udp);
        assert!(
            !table.sockets.get(&id2).unwrap().is_external(),
            "unconnected"
        );
    }

    #[test]
    fn install_preserves_ids() {
        let mut table = SocketTable::new();
        table.install(Socket {
            id: 42,
            proto: Proto::Udp,
            local_port: 9999,
            remote: None,
            state: SockState::Unconnected,
            tx_bytes: 0,
            rx_bytes: 0,
        });
        assert_eq!(table.sockets.get(&42).unwrap().local_port, 9999);
        let next = table.create(Proto::Tcp);
        assert_eq!(next, 43);
    }

    #[test]
    fn distinct_local_ports() {
        let mut table = SocketTable::new();
        let a = table.create(Proto::Tcp);
        let b = table.create(Proto::Tcp);
        assert_ne!(
            table.sockets.get(&a).unwrap().local_port,
            table.sockets.get(&b).unwrap().local_port
        );
    }
}
