//! Packets: a 5-tuple header plus an owned payload.
//!
//! Owned packets are the legacy scalar representation; the batched
//! dataplane processes borrowed [`PacketView`]s out of a
//! [`PacketBatch`](crate::PacketBatch) arena instead. [`Packet::view`]
//! bridges the two.

use crate::batch::PacketView;
use crate::flow::FiveTuple;

/// Bytes of framing we model per packet: Ethernet (14) + IPv4 (20) +
/// TCP (20) = 54.
pub const HEADER_BYTES: u32 = 54;

/// A synthetic packet.
///
/// # Example
///
/// ```
/// use yala_traffic::{FiveTuple, Packet};
/// let p = Packet::new(FiveTuple::new(1, 2, 3, 4, 6), vec![0u8; 100]);
/// assert_eq!(p.payload_len(), 100);
/// assert_eq!(p.wire_len(), 154);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Flow identity (parsed header fields).
    pub five_tuple: FiveTuple,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// Creates a packet from a flow identity and payload.
    pub fn new(five_tuple: FiveTuple, payload: Vec<u8>) -> Self {
        Self {
            five_tuple,
            payload,
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total wire length (headers + payload).
    pub fn wire_len(&self) -> u32 {
        HEADER_BYTES + self.payload.len() as u32
    }

    /// A borrowed view of this packet, as the batched dataplane sees it.
    pub fn view(&self) -> PacketView<'_> {
        PacketView {
            five_tuple: self.five_tuple,
            payload: &self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_includes_headers() {
        let p = Packet::new(FiveTuple::new(0, 0, 0, 0, 6), vec![1, 2, 3]);
        assert_eq!(p.wire_len(), HEADER_BYTES + 3);
        assert_eq!(p.payload_len(), 3);
    }
}
