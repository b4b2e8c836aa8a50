// Package baseline holds the comparison file systems of the evaluation
// (§5): one file system over the same simulated pmem device and cost
// model as ArckFS, run under three persistence disciplines, each an
// architectural archetype the paper measures against.
//
// The skeleton (baseline.go) is everything the archetypes share: the
// DRAM namespace and inode table, path walk, fd table, every
// fsapi.Thread entry point, the read path, ordered rename locking, and
// the block loops of WriteAt and Truncate. It never asks which archetype
// it serves. A discipline (the unexported interface at the top of
// baseline.go) is what differs:
//
//   - nova: log-structured kernel FS — every call crosses; a change
//     commits by appending to a per-inode log; data is copy-on-write.
//   - pmfs: journaled kernel FS — every call crosses; a change commits
//     through one undo journal under one global lock; data in place.
//   - kucofs: per-op-verified userspace FS — lookups and data never
//     cross; a change is a message to one trusted thread that checks and
//     logs it; data in place, a block grant crosses.
//
// The store/flush/fence sequence and crossing count of each operation
// are the archetype's modeled cost; TestArchetypeCosts pins them.
//
// A fourth archetype (the paper's ext4, OdinFS, WineFS, SplitFS and
// Strata are read as parameter profiles of these three) is one more
// discipline and one more row in the archetypes table: the pages format
// reserves, where it crosses, its commit for create, remove, rename and
// size change, its per-block data write and the commit after it, and the
// pages its per-inode state holds at teardown.
package baseline
