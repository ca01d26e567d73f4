//! A Named Data Networking substrate for the DAPES reproduction.
//!
//! This crate re-implements the slice of NDN that DAPES (ICDCS 2020) runs
//! on: hierarchical [`name::Name`]s, the NDN-TLV wire format for
//! [`packet::Interest`] and [`packet::Data`], and an NFD-style forwarder
//! with Content Store, Pending Interest Table and FIB exactly following the
//! paper's Fig. 1 pipeline.
//!
//! Data packets are signed at production time with the trust-anchor scheme
//! from [`dapes_crypto`], binding content to name — the property DAPES
//! relies on for provenance and integrity.
//!
//! # Examples
//!
//! ```
//! use dapes_ndn::prelude::*;
//!
//! let mut fwd = Forwarder::new(ForwarderConfig::default());
//! fwd.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
//!
//! let interest = Interest::new(Name::from_uri("/col/file/0")).with_nonce(1);
//! let actions = fwd.process_interest(
//!     dapes_netsim::time::SimTime::ZERO,
//!     &interest,
//!     FaceId::APP,
//! );
//! assert_eq!(actions.len(), 1); // forwarded to the wireless face
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cs;
pub mod face;
pub mod fib;
pub mod forwarder;
pub mod hash;
#[cfg(test)]
mod model;
pub mod name;
pub mod packet;
pub mod pit;
pub mod tlv;

/// Glob-import of the commonly used types.
pub mod prelude {
    pub use crate::cs::ContentStore;
    pub use crate::face::FaceId;
    pub use crate::fib::Fib;
    pub use crate::forwarder::{
        Action, BroadcastStrategy, Decision, Forwarder, ForwarderConfig, Strategy,
    };
    pub use crate::name::{Component, Name};
    pub use crate::packet::{ContentType, Data, Interest, Packet};
    pub use crate::pit::{Pit, PitEntry, PitInsert};
    pub use crate::tlv::{TlvError, TlvReader};
}

pub use prelude::*;
