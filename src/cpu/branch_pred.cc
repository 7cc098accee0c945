/**
 * @file
 * Hybrid bimodal+gshare predictor, BTB, and return-address stack.
 */

#include "cpu/branch_pred.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace drisim
{

BranchPredictor::BranchPredictor(const BranchPredParams &params,
                                 stats::StatGroup *parent)
    : params_(params),
      bimodal_(params.bimodalEntries, 1),  // weakly not-taken
      gshare_(params.gshareEntries, 1),
      chooser_(params.chooserEntries, 2),  // weakly prefer gshare
      btb_(static_cast<size_t>(params.btbSets) * params.btbAssoc),
      ras_(params.rasDepth, 0),
      group_(parent, "bpred"),
      lookups_(&group_, "lookups", "control-flow predictions made"),
      dirMispredicts_(&group_, "dir_mispredicts",
                      "direction mispredictions"),
      targetMispredicts_(&group_, "target_mispredicts",
                         "taken with wrong/unknown target"),
      btbHits_(&group_, "btb_hits", "BTB target hits"),
      rasPredictions_(&group_, "ras_predictions",
                      "returns predicted via RAS")
{
    drisim_assert(isPowerOf2(params.bimodalEntries) &&
                  isPowerOf2(params.gshareEntries) &&
                  isPowerOf2(params.chooserEntries) &&
                  isPowerOf2(params.btbSets),
                  "predictor tables must be power-of-two sized");
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) &
                                 (params_.bimodalEntries - 1));
}

unsigned
BranchPredictor::gshareIndex(Addr pc) const
{
    const std::uint64_t hist =
        history_ & maskLow(params_.historyBits);
    return static_cast<unsigned>(((pc >> 2) ^ hist) &
                                 (params_.gshareEntries - 1));
}

unsigned
BranchPredictor::chooserIndex(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) &
                                 (params_.chooserEntries - 1));
}

void
BranchPredictor::bump(std::uint8_t &c, bool up)
{
    if (up) {
        if (c < 3)
            ++c;
    } else {
        if (c > 0)
            --c;
    }
}

std::size_t
BranchPredictor::btbBase(Addr pc) const
{
    return ((pc >> 2) & (params_.btbSets - 1)) * params_.btbAssoc;
}

std::span<const BranchPredictor::BtbEntry>
BranchPredictor::btbSet(Addr pc) const
{
    return {&btb_[btbBase(pc)], params_.btbAssoc};
}

namespace
{

/** Move ways [0, @p w) down one, over way @p w, and write @p e to
 *  way 0: the recency-order form of stamping @p e most recent. */
void
putFirst(BranchPredictor::BtbEntry *ways, unsigned w,
         BranchPredictor::BtbEntry e)
{
    for (; w > 0; --w)
        ways[w] = ways[w - 1];
    ways[0] = e;
}

} // namespace

BranchPredictor::BtbEntry *
BranchPredictor::btbLookup(Addr pc)
{
    BtbEntry *ways = &btb_[btbBase(pc)];
    for (unsigned w = 0; w < params_.btbAssoc; ++w) {
        if (ways[w].tag == pc) {
            putFirst(ways, w, ways[w]);
            return &ways[0];
        }
    }
    return nullptr;
}

void
BranchPredictor::btbInstall(Addr pc, Addr target)
{
    BtbEntry *ways = &btb_[btbBase(pc)];
    // Valid entries precede free ones, so the first way holding pc
    // or free ends the scan; a full set without pc gives up its last
    // (least recently used) way.
    unsigned w = 0;
    while (w + 1 < params_.btbAssoc && ways[w].tag != pc &&
           ways[w].tag != kInvalidAddr)
        ++w;
    putFirst(ways, w, {pc, target});
}

BranchPrediction
BranchPredictor::predict(Addr pc, OpClass op)
{
    ++lookups_;
    BranchPrediction pred;

    switch (op) {
      case OpClass::Return:
        pred.taken = true;
        if (rasTop_ > 0) {
            --rasTop_;
            pred.target = ras_[rasTop_ % params_.rasDepth];
            ++rasPredictions_;
        }
        return pred;

      case OpClass::Call:
        // Push the return address (pc + 4) before predicting target.
        ras_[rasTop_ % params_.rasDepth] = pc + kInstrBytes;
        if (rasTop_ < 2 * params_.rasDepth)
            ++rasTop_;
        [[fallthrough]];

      case OpClass::Jump: {
        pred.taken = true;
        if (const BtbEntry *e = btbLookup(pc)) {
            pred.target = e->target;
            ++btbHits_;
        }
        return pred;
      }

      case OpClass::Branch: {
        const bool bim = counterTaken(bimodal_[bimodalIndex(pc)]);
        const bool gsh = counterTaken(gshare_[gshareIndex(pc)]);
        const bool use_gshare =
            counterTaken(chooser_[chooserIndex(pc)]);
        pred.taken = use_gshare ? gsh : bim;
        if (pred.taken) {
            if (const BtbEntry *e = btbLookup(pc)) {
                pred.target = e->target;
                ++btbHits_;
            }
        } else {
            pred.target = pc + kInstrBytes;
        }
        return pred;
      }

      default:
        drisim_panic("predict() on a non-control op");
    }
}

void
BranchPredictor::update(Addr pc, OpClass op, bool taken, Addr target)
{
    if (op == OpClass::Branch) {
        std::uint8_t &bim = bimodal_[bimodalIndex(pc)];
        std::uint8_t &gsh = gshare_[gshareIndex(pc)];
        std::uint8_t &cho = chooser_[chooserIndex(pc)];

        const bool bim_correct = counterTaken(bim) == taken;
        const bool gsh_correct = counterTaken(gsh) == taken;
        if (bim_correct != gsh_correct)
            bump(cho, gsh_correct);

        bump(bim, taken);
        bump(gsh, taken);

        history_ = (history_ << 1) | (taken ? 1 : 0);
    }
    if (taken && op != OpClass::Return)
        btbInstall(pc, target);
}

bool
BranchPredictor::mispredicted(const BranchPrediction &pred, bool taken,
                              Addr target)
{
    if (pred.taken != taken)
        return true;
    if (!taken)
        return false;
    return pred.target != target;
}

void
BranchPredictor::noteResolved(const BranchPrediction &pred, bool taken,
                              Addr target)
{
    if (pred.taken != taken) {
        ++dirMispredicts_;
    } else if (taken && pred.target != target) {
        ++targetMispredicts_;
    }
}

} // namespace drisim
