// Fixture: metric-schema must fire -- eventCategory() puts
// EventKind::PageSampled in the phase category, but the fixture
// DESIGN.md event catalog lists it under sample.

enum class EventKind
{
};

enum EventCategory
{
    kEvSample = 1,
    kEvPhase = 2
};

EventCategory
eventCategory(EventKind kind)
{
    switch (kind) {
      case EventKind::PageSampled:
      case EventKind::Phase:
        return kEvPhase;
    }
    return kEvSample;
}
