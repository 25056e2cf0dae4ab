// Fixture: shard-unsynced-state must fire on an unclassified
// mutable member in a sharded-execution-set header, including one
// right under a member whose own line carries a marker (that marker
// classifies only its own member).  (The path mirrors
// src/sim/machine.hh because the rule scopes to the exact headers
// whose state lane workers execute against.)

struct FakeMachine
{
    void touch() { hits_ = hits_ + 1; }

    unsigned long hits_ = 0;
    unsigned long stride_ = 64; // shard: read-only
    unsigned long cursor_ = 0;
};
